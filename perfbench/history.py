"""Synthesis of the ``history`` workload's stored runs.

The runs look like what the orchestrator persists: cumulative power
counters, per-container and host samples, attributed power and a request
log, rendered in the documented CSV formats by this module rather than by
wattbench's own writers. Every generated quantity that a check compares
against is kept beside the files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from wattbench.store import RunRecord

COMMITS = 40
RUNS_PER_COMMIT = 5
STEP_RATIO = 1.20
DURATION_MS = 10_000
WARMUP_MS = 1_000
INTERVAL_MS = 500
DRAM_WATTS = 0.3
BASE_WATTS = 15.0
CONTAINER = "sut-history"
# share of runs whose counters use a small range, so they wrap mid-run;
# the range still exceeds one interval's energy, so at most one wrap
# falls between two readings
WRAP_SHARE = 0.3
WRAP_RANGE_UJ = (2**24, 2**26)
INVALID_SHARE = 0.2

_SAMPLE_HEADER = "timestamp_ms,metric,scope_id,value\n"
_REQUEST_HEADER = "start_ms,endpoint,user,latency_ms,outcome\n"


@dataclass
class SynthRun:
    record: RunRecord
    files: list[tuple[str, str, bytes]]
    cpu_energy_j: float


@dataclass
class History:
    runs: list[SynthRun]
    commits: list[str]
    step_index: int
    window_s: float
    invalid_ids: set[str] = field(default_factory=set)

    @property
    def valid_runs(self) -> list[SynthRun]:
        return [r for r in self.runs if r.record.run_id not in self.invalid_ids]

    def expected_deltas(self) -> dict[tuple[str, str], float]:
        """cpu_energy_j delta_percent between consecutive commits, from the
        generated watts: median over each commit's valid runs."""
        medians = {}
        for commit in self.commits:
            energies = sorted(r.cpu_energy_j for r in self.valid_runs
                              if r.record.commit_id == commit)
            mid = len(energies) // 2
            medians[commit] = (energies[mid] if len(energies) % 2
                               else (energies[mid - 1] + energies[mid]) / 2)
        return {
            (b, c): (medians[c] - medians[b]) / medians[b] * 100.0
            for b, c in zip(self.commits, self.commits[1:])
        }


def _counter(offset_uj: int, watts: float, t_ms: int, range_uj: int) -> int:
    return (offset_uj + int(watts * t_ms * 1000)) % range_uj  # W * ms = 1000 uJ


def _samples_csv(rows: list[tuple[int, str, str, float]]) -> bytes:
    body = "".join(f"{t},{metric},{scope},{value:.6f}\n" for t, metric, scope, value in rows)
    return (_SAMPLE_HEADER + body).encode("ascii")


def _run_files(rng: random.Random, watts: float, range_uj: int) -> list[tuple[str, str, bytes]]:
    ticks = list(range(0, DURATION_MS + 1, INTERVAL_MS))
    files = []
    for kind, w in (("cpu_package", watts), ("dram", DRAM_WATTS)):
        offset = rng.randrange(range_uj)
        metric = "cpu_energy_counter" if kind == "cpu_package" else "dram_energy_counter"
        rows = [(t, metric, "host", float(_counter(offset, w, t, range_uj))) for t in ticks]
        files.append((f"power_{kind}.csv", "power", _samples_csv(rows)))

    container_rows, host_rows = [], []
    for t in ticks:
        container_rows.append((t, "memory_usage", CONTAINER, 52_428_800.0 + rng.randrange(4096)))
        if t == 0:
            continue
        share = rng.uniform(20.0, 40.0)
        host = share + rng.uniform(5.0, 15.0)
        container_rows.append((t, "cpu_utilization", CONTAINER, share))
        host_rows.append((t, "cpu_utilization", "host", host))
        container_rows.append((t, "cpu_power", CONTAINER, watts * share / host))
        host_rows.append((t, "cpu_power", "host", watts - watts * share / host))
    for rows, scope in ((container_rows, CONTAINER), (host_rows, "host")):
        rows.sort(key=lambda row: (row[1], row[0]))
        files.append((f"container_{scope}.csv", "container", _samples_csv(rows)))

    lines = []
    for user in range(2):
        t = float(rng.uniform(0, 20))
        while t < DURATION_MS:
            latency = rng.uniform(4.0, 16.0)
            lines.append((int(t), f"{int(t)},login,{user},{latency:.6f},success\n"))
            t += latency + 100.0
    lines.sort()
    files.append(("requests.csv", "requests",
                  (_REQUEST_HEADER + "".join(line for _, line in lines)).encode("ascii")))
    return files


def synthesize(seed: int) -> History:
    """Generate the stored runs of ``COMMITS`` commits; cpu power steps up
    by ``STEP_RATIO`` at a seed-chosen commit."""
    rng = random.Random(seed)
    step = rng.randrange(COMMITS // 4, 3 * COMMITS // 4)
    plan_hash = hashlib.sha256(f"perfbench-history-{seed}".encode()).hexdigest()
    window_s = (DURATION_MS - WARMUP_MS) / 1000
    commits = [f"c{k:03d}" for k in range(COMMITS)]
    runs: list[SynthRun] = []
    invalid: set[str] = set()
    for k, commit in enumerate(commits):
        commit_watts = BASE_WATTS * rng.uniform(0.99, 1.01) * (STEP_RATIO if k >= step else 1.0)
        n_runs = RUNS_PER_COMMIT + (1 if rng.random() < INVALID_SHARE else 0)
        for j in range(n_runs):
            is_invalid = j == RUNS_PER_COMMIT
            # an invalid run draws far more power, so its inclusion in any
            # aggregate would show in the energy checks
            watts = commit_watts * (3.0 if is_invalid else rng.uniform(0.995, 1.005))
            range_uj = (rng.randrange(*WRAP_RANGE_UJ) if rng.random() < WRAP_SHARE else 2**32)
            run_id = f"{commit}-r{j}"
            record = RunRecord(
                run_id=run_id,
                commit_id=commit,
                plan_id="history",
                plan_hash=plan_hash,
                repetition_index=j,
                status="invalid" if is_invalid else "valid",
                invalid_reason="agent_degraded" if is_invalid else "",
                warmup_ms=WARMUP_MS,
                duration_ms=DURATION_MS,
                domains=[{"kind": "cpu_package", "max_range_uj": range_uj},
                         {"kind": "dram", "max_range_uj": range_uj}],
            )
            if is_invalid:
                invalid.add(run_id)
            runs.append(SynthRun(record, _run_files(rng, watts, range_uj), watts * window_s))
    return History(runs, commits, step, window_s, invalid)
