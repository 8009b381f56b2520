"""Per-container resource collection and host-power attribution.

The cgroup v2 filesystem is the primary stats backend; a simulated registry
(scripted CSV or live in-process handles) implements the same contract so
pipeline tests run anywhere. Host power is split across containers in
proportion to their CPU share, with the unattributed remainder reported
under the reserved id ``host``.
"""

from __future__ import annotations

import bisect
import csv
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import AttributionError
from .metrics import Sample, SampleSeries, classify

HOST_ID = "host"

# measurement-skew allowance, percentage points
SHARE_EPSILON = 0.5


@dataclass(frozen=True)
class CpuShareSnapshot:
    timestamp_ms: int
    host_cpu_percent: float
    per_container_percent: dict[str, float]


# ---------------------------------------------------------------------------
# Stats backends


class CgroupV2Backend:
    """Reads memory.current and cpu.stat usage_usec from cgroup v2."""

    def __init__(self, root: str = "/sys/fs/cgroup"):
        self.root = Path(root)

    def _container_dir(self, container_id: str) -> Path | None:
        for candidate in (
            self.root / "system.slice" / f"docker-{container_id}.scope",
            self.root / "docker" / container_id,
        ):
            if candidate.is_dir():
                return candidate
        matches = list(self.root.glob(f"**/*{container_id}*"))
        return matches[0] if matches else None

    def exists(self, container_id: str) -> bool:
        return self._container_dir(container_id) is not None

    def read(self, container_id: str) -> tuple[int, int]:
        cg = self._container_dir(container_id)
        if cg is None:
            raise FileNotFoundError(container_id)
        memory = int((cg / "memory.current").read_text().strip())
        usage_usec = 0
        for line in (cg / "cpu.stat").read_text().splitlines():
            key, _, value = line.partition(" ")
            if key == "usage_usec":
                usage_usec = int(value)
                break
        return memory, usage_usec

    def num_cpus(self) -> int:
        return os.cpu_count() or 1


class ScriptedRegistry:
    """Replays container stats from a CSV: t_ms,container_id,memory_bytes,cpu_usage_usec."""

    def __init__(self, path: str):
        self._rows: dict[str, list[tuple[int, int, int]]] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["t_ms", "container_id", "memory_bytes", "cpu_usage_usec"]:
                raise ValueError(f"bad scripted-registry header: {header}")
            for t_ms, cid, memory, usage in reader:
                self._rows.setdefault(cid, []).append((int(t_ms), int(memory), int(usage)))
        for rows in self._rows.values():
            rows.sort()
        self._t0 = time.monotonic()

    def start(self, t0: float) -> None:
        self._t0 = t0

    def exists(self, container_id: str) -> bool:
        return container_id in self._rows

    def _row_at(self, container_id: str, t_ms: float) -> tuple[int, int, int]:
        rows = self._rows[container_id]
        idx = bisect.bisect_right([r[0] for r in rows], t_ms) - 1
        return rows[max(idx, 0)]

    def read(self, container_id: str) -> tuple[int, int]:
        t_ms = (time.monotonic() - self._t0) * 1e3
        _, memory, usage = self._row_at(container_id, t_ms)
        return memory, usage

    def host_cpu_usec(self) -> int:
        # scripted hosts have no idle load: host usage is the container sum
        t_ms = (time.monotonic() - self._t0) * 1e3
        return sum(self._row_at(cid, t_ms)[2] for cid in self._rows)

    def num_cpus(self) -> int:
        return os.cpu_count() or 1


class LiveRegistry:
    """In-process registry of callables reporting (memory_bytes, cpu_usage_usec).

    Used when the SUT is deployed in-process by the mock deployer.
    """

    def __init__(self):
        self._stats: dict[str, callable] = {}
        self._lock = threading.Lock()

    def register(self, container_id: str, stats_fn) -> None:
        with self._lock:
            self._stats[container_id] = stats_fn

    def exists(self, container_id: str) -> bool:
        with self._lock:
            return container_id in self._stats

    def read(self, container_id: str) -> tuple[int, int]:
        with self._lock:
            fn = self._stats.get(container_id)
        if fn is None:
            raise FileNotFoundError(container_id)
        return fn()

    def host_cpu_usec(self) -> int:
        # the whole process stands in for the host in simulated runs
        return int(time.process_time() * 1e6)

    def num_cpus(self) -> int:
        return os.cpu_count() or 1


def make_stats_backend(config: dict):
    kind = config.get("type", "cgroup")
    if kind == "cgroup":
        return CgroupV2Backend(config.get("root", "/sys/fs/cgroup"))
    if kind == "scripted":
        return ScriptedRegistry(config["path"])
    raise ValueError(f"unknown container stats backend: {kind!r}")


# ---------------------------------------------------------------------------
# CPU shares


def cpu_percent_from_usage(delta_usage_usec: int, delta_t_usec: float, num_cpus: int) -> float:
    """Normalize a cumulative usage delta to [0, 100] of total host capacity."""
    if delta_t_usec <= 0:
        return 0.0
    pct = delta_usage_usec / (delta_t_usec * num_cpus) * 100.0
    return min(100.0, max(0.0, pct))


# ---------------------------------------------------------------------------
# Power attribution


def attribute_power(host_power_watts: float, snapshot: CpuShareSnapshot) -> dict[str, float]:
    """Split host power across containers by CPU share.

    Container c receives host_power * share_c / host_cpu_percent; the
    residual (idle plus unmonitored work) is reported under ``host``, so the
    returned values always sum to host_power exactly.

    Container and host counters are read at slightly different instants
    within a tick, so per-interval container shares can nudge past the host
    share; overshoot within SHARE_EPSILON is rescaled onto the host share,
    anything larger is a genuine inconsistency.
    """
    if host_power_watts < 0:
        raise ValueError("host power must be non-negative")
    shares = snapshot.per_container_percent
    host_pct = snapshot.host_cpu_percent
    if host_pct == 0:
        if any(v > 0 for v in shares.values()):
            raise AttributionError("zero host CPU share with nonzero container shares")
        return {**{cid: 0.0 for cid in shares}, HOST_ID: host_power_watts}
    total_share = sum(shares.values())
    if total_share > host_pct + SHARE_EPSILON:
        raise AttributionError(
            f"container CPU shares {total_share:.2f}% exceed host share {host_pct:.2f}%"
        )
    if total_share > host_pct:
        shares = {cid: share * host_pct / total_share for cid, share in shares.items()}
    out = {cid: host_power_watts * share / host_pct for cid, share in shares.items()}
    out[HOST_ID] = host_power_watts - sum(out.values())
    return out


def attributed_power_samples(
    power_points: SampleSeries, snapshots: list[CpuShareSnapshot]
) -> list[Sample]:
    """Per-container attributed power series (origin: derived).

    Each power point uses the latest CPU-share snapshot not newer than the
    point itself; points before the first snapshot use the first one.
    Points whose snapshot is inconsistent beyond the skew allowance are
    skipped rather than poisoning the whole series.
    """
    if not snapshots:
        return []
    desc = classify("cpu_power")
    snap_ts = [s.timestamp_ms for s in snapshots]
    out: list[Sample] = []
    for point in power_points.samples:
        idx = bisect.bisect_right(snap_ts, point.timestamp_ms) - 1
        snapshot = snapshots[max(idx, 0)]
        try:
            split = attribute_power(point.value, snapshot)
        except AttributionError:
            continue
        for cid, watts in sorted(split.items()):
            out.append(Sample(point.timestamp_ms, desc, cid, watts))
    return out
