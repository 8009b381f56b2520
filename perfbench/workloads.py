"""The three workloads and the metrics they report.

Every workload runs the pipeline a CI job runs: a live stage that drives
``Orchestrator.execute_plan`` against the bundled mock SUT with the
``cpu_model`` backend, an analysis of the store (list, load, aggregate,
render, compare consecutive commits), and one gate, ``wattbench compare``
in a fresh process. ``history`` adds a synthesized store, which it
persists and then analyses again and again. The workloads differ in where
the work lands; see README.md for why each was chosen.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

from wattbench import agent as amod
from wattbench import analytics as an
from wattbench import loadgen as lmod
from wattbench import mocksut
from wattbench import orchestrator as om
from wattbench import store as smod
from wattbench.errors import PlanFailed
from wattbench.power import DomainKind
from wattbench.store import RunStore

import checks
import history as hmod
from tracing import Tracer, span_cost_ms

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

IDLE_WATTS = 20.0
WATTS_PER_CPU = 25.0
DRAM_WATTS = 0.3
NCPU = os.cpu_count() or 1
# a zero-work profile: no burn, no sleep, the smallest v1-like payload
ZERO = mocksut.SutProfile("zero", 0, 256, 0.0)
# Every compared metric but throughput_mean_rps. Throughput is a mean of
# whole-second request counts, so three repetitions often tie; with ties
# scipy's rank-sum test drops to its normal approximation, which can reach
# p < 0.05 where the exact test cannot, and the gate's verdict would then
# change from run to run.
GATE_METRICS = "cpu_energy_j,dram_energy_j,energy_per_request_j,response_ms_median,cpu_percent_median"
# wall time each run keeps free for its gate, analysis and checks
TAIL_S = 4.0
# cold set-ups timed per run, each in a fresh process. The set-up time of a
# fresh process on the build VM came in two modes about 30 % apart, so the
# median of one set-up per run moved by up to 27 % between two sets of ten
# runs; the mean of several tracks the mix of the two modes.
COLD_SETUPS = 5


@dataclass(frozen=True)
class Live:
    commits: tuple[tuple[str, str], ...]  # (commit id, mock profile)
    users: int
    think_time_ms: int
    repetitions: int
    duration_ms: int
    warmup_ms: int
    interval_ms: int


def live_spec(workload: str, seconds: int) -> Live:
    """Repetitions are short: each 0.5 s poll of socketserver returns a
    little late, so the phase at which MockSut.stop waits for the poll
    drifts, and past about 5 s it lands at random either near 0 or near
    500 ms. Short repetitions keep that wait at a repeatable phase.
    Warm-ups are whole sampling intervals, because the energy window
    starts at the first reading after the warm-up."""
    budget_ms = (seconds - TAIL_S) * 1000
    if workload == "floor":
        # the largest odd count that fits, so the median is one repetition's
        reps = max(3, int(budget_ms // (2000 + 1050)) - 1) | 1
        return Live((("floor", "zero"),), users=1, think_time_ms=0, repetitions=reps,
                    duration_ms=2000, warmup_ms=500, interval_ms=500)
    if workload == "commits":
        # twelve repetitions, each about 1.05 s longer than its duration
        per_rep_ms = budget_ms / 12 - 1050
        return Live(tuple((v, v) for v in ("v1", "v2", "v3", "v4")), users=2,
                    think_time_ms=100, repetitions=3,
                    duration_ms=max(1000, int(per_rep_ms) // 100 * 100), warmup_ms=200,
                    interval_ms=100)
    # history's live stage only gives it the live metrics, at zero SUT work;
    # the store takes the rest of the run
    return Live((("head", "zero"),), users=1, think_time_ms=0, repetitions=5,
                duration_ms=2000, warmup_ms=500, interval_ms=500)


def write_plan(workdir: Path, spec: Live, seed: int) -> tuple[Path, list[tuple[str, str]]]:
    rng = random.Random(seed)
    credentials = [(f"user{rng.randrange(10**6)}", f"pw{rng.randrange(16**8):08x}")
                   for _ in range(3)]
    (workdir / "scenario.ini").write_text(
        "[scenario]\n"
        f"think_time_ms = {spec.think_time_ms}\n"
        f"credentials = {' '.join(f'{u}:{p}' for u, p in credentials)}\n\n"
        "[operation:login]\nmethod = POST\npath = /login\n"
        'body = {"user": "{user}", "pass": "{pass}"}\n'
    )
    plan = workdir / "plan.ini"
    plan.write_text(
        "[plan]\n"
        f"users = {spec.users}\nduration_ms = {spec.duration_ms}\nwarmup_ms = {spec.warmup_ms}\n"
        f"repetitions = {spec.repetitions}\nsampling_interval_ms = {spec.interval_ms}\n"
        "cooldown_ms = 0\n\n[scenario]\npath = scenario.ini\n\n"
        "[monitoring]\npower_backend = cpu_model\ndomains = cpu_package,dram\n"
        f"idle_watts = {IDLE_WATTS}\nwatts_per_cpu = {WATTS_PER_CPU}\ndram_watts = {DRAM_WATTS}\n"
    )
    return plan, credentials


def install_spans(tracer: Tracer, full: bool) -> None:
    """Wrap wattbench's entry points. The untraced run keeps only the span
    its end-to-end metrics need."""
    tracer.wrap(om.Orchestrator, "execute_run", "orchestrator.execute_run")
    if not full:
        return
    tracer.wrap(RunStore, "persist_run", "store.persist_run",
                lambda a, k, r: {"bytes": sum(len(f[2]) for f in a[2])})
    tracer.wrap(om.MockDeployer, "deploy", "orchestrator.deploy")
    tracer.wrap(om.Deployment, "teardown", "orchestrator.teardown")
    tracer.wrap(amod.AgentClient, "start", "agent.start")
    tracer.wrap(amod.AgentClient, "stop", "agent.stop")
    tracer.wrap(amod.AgentClient, "fetch", "agent.fetch",
                lambda a, k, r: {"bytes": len(r[1])})
    tracer.wrap(amod, "verify_archive", "agent.verify_archive")
    tracer.wrap(amod.AgentServer, "stop", "agent.server_stop")
    tracer.wrap(lmod, "run_scenario", "loadgen.run_scenario",
                lambda a, k, r: {"duration_ms": a[2], "requests": len(r.records)})
    tracer.wrap(RunStore, "load_run", "store.load_run")
    tracer.wrap(smod, "read_samples_csv", "metrics.csv_parse")
    tracer.wrap(smod, "read_records_csv", "metrics.csv_parse")
    tracer.wrap(an, "aggregate_run", "analytics.aggregate")
    tracer.wrap(an, "compare", "analytics.compare")
    tracer.wrap(an, "render_report", "analytics.render")


# ---------------------------------------------------------------------------
# Stages


def cpu_seconds() -> float:
    """CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def analyse(store: RunStore):
    """List, load and aggregate every valid stored run, render the report
    and compare consecutive commits."""
    manifests = store.list_runs()
    by_commit: dict[str, list] = {}
    for manifest in manifests:
        if manifest.status == "valid":
            by_commit.setdefault(manifest.commit_id, []).append(
                an.aggregate_run(store.load_run(manifest.run_id)))
    commits = sorted(by_commit)
    summaries = [s for c in commits for s in by_commit[c]]
    report = an.render_report(summaries, "json")
    pairs = list(zip(commits, commits[1:])) or [(commits[0], commits[0])]
    comparisons = {(b, c): an.compare(by_commit[b], by_commit[c]) for b, c in pairs}
    return len(manifests), summaries, report, comparisons


def run_gate(store_dir: Path, baseline: str, candidate: str):
    """``wattbench compare`` in a fresh interpreter, as a CI job runs it."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wattbench", "compare", baseline, candidate,
         "--store", str(store_dir), "--metrics", GATE_METRICS, "--format", "json"],
        cwd=ROOT, capture_output=True, timeout=150,
    )
    wall = time.perf_counter() - started
    verdict = None
    if proc.returncode in (0, 1):
        verdict = json.loads(proc.stdout)["overall_verdict"]
    return wall, proc.returncode, verdict


def fresh_import_s(module: str, repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        times.append(float(out.strip().splitlines()[-1]))
    return statistics.median(times)


def observed_tokens(profiles: list[str], credentials) -> dict[str, dict]:
    """Login replies of a fresh service per profile."""
    suts = [mocksut.serve(p) for p in profiles]
    try:
        out = {}
        with requests.Session() as session:
            for profile, sut in zip(profiles, suts):
                out[profile] = {
                    (u, p): session.post(sut.base_url + "/login",
                                         json={"user": u, "pass": p}, timeout=30).content
                    for u, p in credentials
                }
        return out
    finally:
        # each stop waits out a shutdown poll; wait for them together
        stoppers = [threading.Thread(target=s.stop) for s in suts]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(timeout=30)


def standalone_burn_ms(units: dict[str, int]) -> dict[str, float]:
    """Median thread time of one ``burn()`` per profile, over nine rounds
    spread across two seconds. The host's speed changes in bursts of about a
    second: five burns of v3 in a row read 13 ms at one moment and 22 ms
    half a second later, while the SUT's CPU is taken over seconds."""
    times: dict[str, list[float]] = {profile: [] for profile in units}
    for i in range(9):
        if i and any(units.values()):
            time.sleep(0.25)
        for profile, n in units.items():
            start = time.thread_time()
            mocksut.burn(n)
            times[profile].append((time.thread_time() - start) * 1e3)
    return {profile: statistics.median(t) for profile, t in times.items()}


# ---------------------------------------------------------------------------
# Per-run facts read back from the store


@dataclass
class RunFacts:
    commit: str
    summary: an.RunSummary
    latencies: list[float]
    failed_requests: int
    window_s: float
    requests_all: int
    sut_cpu_ms: float
    sut_requests: int
    lateness_ms: list[float]
    readings: int
    points: int
    attributed_points: int


def run_facts(store: RunStore, run_id: str, interval_ms: int) -> tuple[RunFacts, list[str]]:
    run = store.load_run(run_id)
    rec = run.record
    summary = an.aggregate_run(run)
    start, end = rec.warmup_ms, rec.duration_ms
    in_window = [r for r in run.requests if start <= r.start_ms < end]
    ok = [r for r in in_window if r.success]
    window_s = (end - start) / 1000
    errors = checks.closed_loop_errors(run.requests, run_id)
    errors += checks.energy_bound_errors(
        summary.cpu_energy_j, summary.dram_energy_j, window_s, interval_ms / 1000,
        IDLE_WATTS, WATTS_PER_CPU, DRAM_WATTS, NCPU, run_id)

    # SUT CPU over the window, integrated from the container's CPU samples:
    # each sample covers the interval since the previous one
    sut = sorted((s.timestamp_ms, s.value) for s in run.samples
                 if s.metric.name == "cpu_utilization" and s.scope_id.startswith("sut-"))
    sut_cpu_ms = sum(pct / 100 * NCPU * (t - t_prev)
                     for (t_prev, _), (t, pct) in zip(sut, sut[1:]) if start < t <= end)

    cpu = run.counters[DomainKind.CPU_PACKAGE]
    lateness = [r.timestamp_ms - i * interval_ms for i, r in enumerate(cpu[:-1])]
    attributed = {s.timestamp_ms for s in run.samples if s.metric.name == "cpu_power"}
    facts = RunFacts(
        commit=rec.commit_id, summary=summary, latencies=[r.latency_ms for r in ok],
        failed_requests=len(in_window) - len(ok), window_s=window_s, requests_all=len(run.requests), sut_cpu_ms=sut_cpu_ms,
        sut_requests=len(ok), lateness_ms=lateness,
        readings=sum(len(v) for v in run.counters.values()),
        points=len(cpu) - 1, attributed_points=len(attributed),
    )
    return facts, errors


# ---------------------------------------------------------------------------
# The run


@dataclass
class Result:
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def run(workload: str, seed: int, seconds: int, trace: bool, process_age) -> Result:
    with workspace(workload, seed) as workdir:
        return _run(workload, seed, seconds, trace, process_age, workdir)


def setup_only(workload: str, seed: int, seconds: int, trace: bool, process_age) -> float:
    """Seconds from the start of this process to the end of a run's set-up."""
    with workspace(workload, seed) as workdir:
        _setup(workload, seed, seconds, trace, workdir)
        return process_age()


@contextlib.contextmanager
def workspace(workload: str, seed: int):
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(workload, seed, seconds, trace, workdir: Path):
    """Plan and scenario files, the synthesized history and the spans."""
    spec = live_spec(workload, seconds)
    mocksut.PROFILES.setdefault(ZERO.profile_id, ZERO)
    plan_path, credentials = write_plan(workdir, spec, seed)
    plan = om.load_test_plan(str(plan_path))
    hist = hmod.synthesize(seed) if workload == "history" else None
    tracer = Tracer()
    install_spans(tracer, trace)
    return spec, plan, credentials, hist, tracer


def cold_setup_s(workload: str, seed: int, seconds: int, trace: bool) -> float:
    """One cold set-up in a fresh process of this benchmark."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True).stdout
    return float(out.strip().splitlines()[-1])


def _run(workload, seed, seconds, trace, process_age, workdir: Path) -> Result:
    res = Result()
    spec, plan, credentials, hist, tracer = _setup(workload, seed, seconds, trace, workdir)
    setup_s = [process_age()]

    # -- live stage ----------------------------------------------------------
    started = time.perf_counter()
    store = live_store = RunStore(str(workdir / "store"))
    orchestrator = om.Orchestrator(store)
    cpu0 = cpu_seconds()
    records = []
    for commit, profile in spec.commits:
        try:
            records += orchestrator.execute_plan(plan, om.parse_sut_spec(f"mock:{profile}", commit))
        except PlanFailed as exc:
            res.errors.append(f"{commit}: {exc}")
            res.attempted += spec.repetitions
            res.failed += spec.repetitions
    live_cpu_s = cpu_seconds() - cpu0
    rep_overheads = [d - plan.duration_ms for d in tracer.durations_ms("orchestrator.execute_run")]

    # -- analysis and gate ---------------------------------------------------
    if hist is None:
        analysis = analyse(store)
        gate_pair = (("floor", "floor") if workload == "floor" else ("v1", "v3"))
        gate_expected = 0 if workload == "floor" else 1
    else:
        store, analysis = store_stage(hist, workdir, started + seconds - TAIL_S)
        res.attempted += len(hist.runs)
        gate_pair = (hist.commits[hist.step_index - 1], hist.commits[hist.step_index])
        gate_expected = 1
    gate_s, gate_exit, verdict = run_gate(Path(store.root), *gate_pair)
    res.attempted += 1
    if gate_exit != gate_expected:
        res.failed += 1
    res.errors += checks.gate_errors(gate_exit, gate_expected, verdict)
    tracer.recording = False
    setup_s += [cold_setup_s(workload, seed, seconds, trace) for _ in range(COLD_SETUPS - 1)]

    # -- read back and check -------------------------------------------------
    facts = []
    for record in records:
        res.attempted += 1
        if not record.valid:
            res.failed += 1
            res.errors.append(f"{record.run_id}: invalid ({record.invalid_reason})")
            continue
        fact, errors = run_facts(live_store, record.run_id, spec.interval_ms)
        facts.append(fact)
        res.errors += errors
        if fact.failed_requests:
            res.failed += 1
    res.errors += (_history_errors(hist, *analysis[1:]) if hist
                   else _analysis_errors(analysis, facts))
    errors, lines = _per_version(spec, facts, credentials)
    res.errors += errors
    res.lines += lines
    if workload == "commits":
        res.errors += _ordering_errors(facts)

    measured = sum(len(f.latencies) for f in facts)
    # the geometric mean of each version's median: pooled, the versions'
    # latencies form separate clusters and the pooled median falls between
    # them; the geometric mean gives each version the same relative weight
    p50 = statistics.geometric_mean(
        statistics.median(lat for f in facts if f.commit == commit for lat in f.latencies)
        for commit in sorted({f.commit for f in facts}))
    window_s = sum(f.window_s for f in facts)
    res.end_to_end = {
        "setup_s": (statistics.fmean(setup_s), "s"),
        "latency_p50_ms": (p50, "ms"),
        "throughput_rps": (measured / window_s, "req/s"),
        "cpu_ms_per_req": (live_cpu_s * 1e3 / sum(f.requests_all for f in facts), "ms"),
        "rep_overhead_ms": (statistics.median(rep_overheads), "ms"),
    }
    res.lines.append(f"{workload}: {len(records)} repetitions, {measured} measured "
                     f"requests, gate {gate_pair[0]}->{gate_pair[1]} exit {gate_exit} ({verdict})")
    if trace:
        res.per_layer = _per_layer(tracer, facts, gate_s)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload}-seed{seed}.jsonl")
        res.lines += [f"traced end-to-end {name} = {value:.6g} {unit}"
                      for name, (value, unit) in res.end_to_end.items()]
    res.lines += [f"{name} = {value:.6g} {unit}"
                  for name, (value, unit) in (res.per_layer if trace else res.end_to_end).items()]
    res.lines.append(f"attempted {res.attempted}, failed {res.failed}")
    return res


def store_stage(hist, workdir: Path, until: float):
    """Persist every synthesized run into a fresh store, then analyse it
    again and again until ``until``, at least five times. Returns the store
    and its last analysis."""
    store = RunStore(str(workdir / "history"))
    for synth in hist.runs:
        store.persist_run(synth.record, synth.files)
    passes = 0
    while passes < 5 or time.perf_counter() < until:
        analysis = analyse(store)
        passes += 1
    return store, analysis


def _history_errors(hist, summaries, report, comparisons) -> list[str]:
    """Energies, exclusion of invalid runs and deltas against the generated inputs."""
    observed = {s.run_id: s.cpu_energy_j for s in summaries}
    expected = {r.record.run_id: r.cpu_energy_j for r in hist.valid_runs}
    errors = checks.energy_errors(observed, expected, "history")
    dram = {s.run_id: s.dram_energy_j for s in summaries}
    errors += checks.energy_errors(dram, {k: DRAM_WATTS * hist.window_s for k in expected},
                                   "history dram")
    reported = [r["run_id"] for r in json.loads(report)["runs"]]
    errors += checks.exclusion_errors(reported, expected, hist.invalid_ids)
    deltas = {pair: c.per_metric["cpu_energy_j"].delta_percent for pair, c in comparisons.items()}
    errors += checks.delta_errors(deltas, hist.expected_deltas())
    return errors[:10]


def _analysis_errors(analysis, facts: list[RunFacts]) -> list[str]:
    """The repeated analysis saw every live run."""
    n, summaries, _, _ = analysis
    if n != len(facts) or {s.run_id for s in summaries} != {f.summary.run_id for f in facts}:
        return [f"analysis saw {n} runs, {len(facts)} were stored valid"]
    return []


def _per_version(spec: Live, facts: list[RunFacts], credentials):
    """SUT token and CPU checks per version, with a line of figures each."""
    profiles = sorted({p for _, p in spec.commits})
    errors, lines = [], []
    for profile, bodies in observed_tokens(profiles, credentials).items():
        prof = mocksut.PROFILES[profile]
        errors += checks.token_errors(bodies, prof.cpu_work_units, prof.payload_bytes, profile)
    burns = standalone_burn_ms({p: mocksut.PROFILES[p].cpu_work_units for p in profiles})
    for commit, profile in spec.commits:
        mine = [f for f in facts if f.commit == commit]
        if not mine:
            continue
        burn_ms = burns[profile]
        cpu_ms = sum(f.sut_cpu_ms for f in mine) / max(1, sum(f.sut_requests for f in mine))
        errors += checks.sut_cpu_errors(cpu_ms, burn_ms, commit)
        median = statistics.median
        lines.append(
            f"{commit} ({profile}): latency p50 {median(x for f in mine for x in f.latencies):.2f} ms, "
            f"energy/request {median(f.summary.energy_per_request_j for f in mine):.4f} J, "
            f"cpu_energy {median(f.summary.cpu_energy_j for f in mine):.3f} J, "
            f"SUT CPU {cpu_ms:.3f} ms/req, standalone burn {burn_ms:.3f} ms")
    return errors, lines


def _ordering_errors(facts: list[RunFacts]) -> list[str]:
    def median_of(attr):
        return {v: statistics.median(getattr(f.summary, attr) for f in facts if f.commit == v)
                for v in ("v1", "v2", "v3", "v4")}

    return checks.ordering_errors(median_of("energy_per_request_j"),
                                  median_of("response_ms_median"))


def _per_layer(tracer: Tracer, facts: list[RunFacts], gate_s: float) -> dict:
    med = statistics.median

    def per_rep(*names):
        return med(tracer.per_ancestor_ms("orchestrator.execute_run", *names))

    scenario = tracer.infos("loadgen.run_scenario")
    overshoot = [d - i["duration_ms"] for d, i in
                 zip(tracer.durations_ms("loadgen.run_scenario"), scenario)]
    lateness = [x for f in facts for x in f.lateness_ms]
    points = sum(f.points for f in facts)
    spans = len(tracer.spans)
    return {
        "orchestrator.deploy_ms": (per_rep("orchestrator.deploy"), "ms"),
        "orchestrator.teardown_ms": (per_rep("orchestrator.teardown"), "ms"),
        "agent.start_ms": (per_rep("agent.start"), "ms"),
        "agent.stop_ms": (per_rep("agent.stop"), "ms"),
        "agent.fetch_ms": (per_rep("agent.fetch", "agent.verify_archive"), "ms"),
        "agent.server_stop_ms": (per_rep("agent.server_stop"), "ms"),
        "agent.archive_bytes": (med(i["bytes"] for i in tracer.infos("agent.fetch")), "bytes"),
        "loadgen.overshoot_ms": (med(overshoot), "ms"),
        "loadgen.requests": (sum(i["requests"] for i in scenario), "count"),
        "mocksut.cpu_ms_per_req": (sum(f.sut_cpu_ms for f in facts)
                                   / max(1, sum(f.sut_requests for f in facts)), "ms"),
        "power.readings": (sum(f.readings for f in facts), "count"),
        "power.tick_late_ms_mean": (statistics.fmean(lateness), "ms"),
        "power.window_overrun_ms": (med((f.summary.dram_energy_j / DRAM_WATTS - f.window_s) * 1e3
                                        for f in facts), "ms"),
        "containers.attribution_points": (points, "count"),
        "containers.attribution_skipped": (points - sum(f.attributed_points for f in facts),
                                           "count"),
        "store.persist_ms": (tracer.median_ms("store.persist_run"), "ms"),
        "store.run_bytes": (med(i["bytes"] for i in tracer.infos("store.persist_run")), "bytes"),
        "store.load_ms": (tracer.median_ms("store.load_run"), "ms"),
        "metrics.csv_parse_ms": (med(tracer.per_ancestor_ms("store.load_run",
                                                            "metrics.csv_parse")), "ms"),
        "analytics.aggregate_ms": (tracer.median_ms("analytics.aggregate"), "ms"),
        "analytics.compare_ms": (tracer.median_ms("analytics.compare"), "ms"),
        "analytics.render_ms": (tracer.median_ms("analytics.render"), "ms"),
        "cli.gate_s": (gate_s, "s"),
        "cli.import_s": (fresh_import_s("wattbench.cli"), "s"),
        "cli.stats_import_s": (fresh_import_s("scipy.stats"), "s"),
        "trace.spans": (spans, "count"),
        "trace.overhead_ms": (spans * span_cost_ms(), "ms"),
    }
