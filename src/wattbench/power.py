"""Energy counter probes: RAPL sysfs backend, simulated backends, and the
derivation of point power from cumulative microjoule readings.

Counters wrap at an advertised range; a single wrap between consecutive
samples is assumed (at >=1 Hz sampling a wrap interval is hours). Power
points are timestamped at the closing reading of each interval.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ImplausiblePower, InsufficientData, ProbeUnavailable, RangeError
from .metrics import Sample, SampleSeries, classify

DEFAULT_MAX_RANGE_UJ = 2**32
DEFAULT_MAX_WATTS = 1000.0

COUNTER_METRIC = {
    "cpu_package": "cpu_energy_counter",
    "dram": "dram_energy_counter",
}


class DomainKind(str, Enum):
    CPU_PACKAGE = "cpu_package"
    DRAM = "dram"


@dataclass(frozen=True)
class EnergyDomain:
    kind: DomainKind
    counter_path: str
    max_range_uj: int = DEFAULT_MAX_RANGE_UJ

    def __post_init__(self):
        if self.max_range_uj <= 0:
            raise ValueError("max_range_uj must be positive")


@dataclass(frozen=True)
class CounterReading:
    timestamp_ms: int
    raw_uj: int


@dataclass
class PowerTrace:
    domain: EnergyDomain
    interval_ms: int
    points: SampleSeries


def delta_energy(prev_uj: int, curr_uj: int, max_range_uj: int) -> int:
    """Microjoules elapsed between two counter readings, wrap-corrected."""
    for v in (prev_uj, curr_uj):
        if not 0 <= v <= max_range_uj:
            raise RangeError(f"counter value {v} outside [0, {max_range_uj}]")
    if curr_uj >= prev_uj:
        return curr_uj - prev_uj
    return curr_uj + max_range_uj - prev_uj


def power_from_counters(
    readings: list[CounterReading],
    domain: EnergyDomain,
    max_watts: float = DEFAULT_MAX_WATTS,
) -> PowerTrace:
    """Derive watt points from consecutive readings.

    Point i is the wrap-corrected delta divided by the actual elapsed time,
    timestamped at the closing reading. Deltas implying more than
    ``max_watts`` are treated as run-invalidating.
    """
    if len(readings) < 2:
        raise InsufficientData("need at least 2 counter readings")
    samples = []
    descriptor = classify("host_power")
    for prev, curr in zip(readings, readings[1:]):
        dt_ms = curr.timestamp_ms - prev.timestamp_ms
        if dt_ms <= 0:
            raise ValueError("counter readings must have strictly increasing timestamps")
        duj = delta_energy(prev.raw_uj, curr.raw_uj, domain.max_range_uj)
        watts = (duj / 1e6) / (dt_ms / 1e3)
        if watts > max_watts:
            raise ImplausiblePower(
                f"{watts:.1f} W on {domain.kind.value} exceeds sanity ceiling {max_watts} W"
            )
        samples.append(Sample(curr.timestamp_ms, descriptor, "host", watts))
    interval_ms = round(
        (readings[-1].timestamp_ms - readings[0].timestamp_ms) / (len(readings) - 1)
    )
    return PowerTrace(domain, interval_ms, SampleSeries(descriptor, "host", tuple(samples)))


# ---------------------------------------------------------------------------
# Backends


class RaplSysfsBackend:
    """Reads cumulative energy from the powercap sysfs hierarchy."""

    def __init__(self, root: str = "/sys/class/powercap"):
        self.root = Path(root)

    def discover(self) -> dict[DomainKind, EnergyDomain]:
        domains: dict[DomainKind, EnergyDomain] = {}
        base = self.root / "intel-rapl:0"
        if (base / "energy_uj").exists():
            domains[DomainKind.CPU_PACKAGE] = EnergyDomain(
                DomainKind.CPU_PACKAGE, str(base), self._max_range(base)
            )
        for sub in sorted(self.root.glob("intel-rapl:0:*")):
            name_file = sub / "name"
            if name_file.exists() and name_file.read_text().strip() == "dram":
                domains[DomainKind.DRAM] = EnergyDomain(
                    DomainKind.DRAM, str(sub), self._max_range(sub)
                )
        return domains

    @staticmethod
    def _max_range(path: Path) -> int:
        range_file = path / "max_energy_range_uj"
        if range_file.exists():
            return int(range_file.read_text().strip())
        return DEFAULT_MAX_RANGE_UJ

    def read_uj(self, domain: EnergyDomain) -> int:
        try:
            return int((Path(domain.counter_path) / "energy_uj").read_text().strip())
        except (OSError, ValueError) as exc:
            raise ProbeUnavailable(f"cannot read {domain.counter_path}: {exc}") from exc


class ProfilePowerBackend:
    """Replays a scripted piecewise-constant (t_ms, watts) profile.

    Cumulative energy is the exact integral of the step profile at elapsed
    time, reduced modulo the counter range, so the full pipeline runs
    identically on machines without RAPL.
    """

    def __init__(self, profile_dir: str, max_range_uj: int = DEFAULT_MAX_RANGE_UJ):
        self.profile_dir = Path(profile_dir)
        self.max_range_uj = max_range_uj
        self._profiles: dict[DomainKind, list[tuple[int, float]]] = {}
        self._t0: float | None = None
        for kind in DomainKind:
            path = self.profile_dir / f"{kind.value}.csv"
            if path.exists():
                self._profiles[kind] = self._load(path)
        if not self._profiles:
            raise ProbeUnavailable(f"no power profiles in {self.profile_dir}")

    @staticmethod
    def _load(path: Path) -> list[tuple[int, float]]:
        rows: list[tuple[int, float]] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["t_ms", "watts"]:
                raise ProbeUnavailable(f"bad profile header in {path}: {header}")
            for row in reader:
                rows.append((int(row[0]), float(row[1])))
        if not rows or rows[0][0] != 0:
            raise ProbeUnavailable(f"profile {path} must start at t_ms=0")
        return rows

    def discover(self) -> dict[DomainKind, EnergyDomain]:
        return {
            kind: EnergyDomain(kind, str(self.profile_dir / f"{kind.value}.csv"), self.max_range_uj)
            for kind in self._profiles
        }

    def start(self, t0: float | None = None) -> None:
        self._t0 = time.monotonic() if t0 is None else t0

    def energy_uj_at(self, kind: DomainKind, t_ms: float) -> int:
        """Exact integral of the step profile from 0 to t_ms, in microjoules."""
        profile = self._profiles[kind]
        if t_ms <= 0:
            return 0
        total_uj = 0.0
        for (t_a, watts), nxt in zip(profile, profile[1:] + [None]):
            t_b = nxt[0] if nxt is not None else t_ms
            if t_a >= t_ms:
                break
            span_ms = min(t_b, t_ms) - t_a
            total_uj += watts * span_ms * 1000.0  # W * ms = 1000 uJ
        return int(total_uj)

    def read_uj(self, domain: EnergyDomain) -> int:
        if self._t0 is None:
            self.start()
        elapsed_ms = (time.monotonic() - self._t0) * 1e3
        return self.energy_uj_at(domain.kind, elapsed_ms) % self.max_range_uj


class CpuModelPowerBackend:
    """Models host power from actually consumed process CPU time.

    Energy(t) = idle_watts * t + watts_per_cpu_second * cpu_seconds(t); the
    DRAM domain draws a small constant. Work done by an in-process SUT shows
    up in the counter proportionally to its real CPU burn, which preserves
    energy orderings across SUT versions without hardware counters.
    """

    def __init__(
        self,
        idle_watts: float = 20.0,
        watts_per_cpu: float = 25.0,
        dram_watts: float = 0.3,
        max_range_uj: int = DEFAULT_MAX_RANGE_UJ,
    ):
        self.idle_watts = idle_watts
        self.watts_per_cpu = watts_per_cpu
        self.dram_watts = dram_watts
        self.max_range_uj = max_range_uj
        self._t0 = time.monotonic()
        self._cpu0 = time.process_time()

    def discover(self) -> dict[DomainKind, EnergyDomain]:
        return {
            DomainKind.CPU_PACKAGE: EnergyDomain(
                DomainKind.CPU_PACKAGE, "cpu-model:package", self.max_range_uj
            ),
            DomainKind.DRAM: EnergyDomain(DomainKind.DRAM, "cpu-model:dram", self.max_range_uj),
        }

    def start(self, t0: float | None = None) -> None:
        self._t0 = time.monotonic() if t0 is None else t0
        self._cpu0 = time.process_time()

    def read_uj(self, domain: EnergyDomain) -> int:
        elapsed = time.monotonic() - self._t0
        if domain.kind is DomainKind.DRAM:
            joules = self.dram_watts * elapsed
        else:
            cpu = time.process_time() - self._cpu0
            joules = self.idle_watts * elapsed + self.watts_per_cpu * cpu
        return int(joules * 1e6) % self.max_range_uj


def make_power_backend(config: dict):
    """Build a power backend from an agent monitoring config dict."""
    kind = config.get("type", "rapl")
    if kind == "rapl":
        backend = RaplSysfsBackend(config.get("root", "/sys/class/powercap"))
        if not backend.discover():
            raise ProbeUnavailable("no RAPL domains found under powercap sysfs")
        return backend
    if kind == "profile":
        return ProfilePowerBackend(
            config["dir"], int(config.get("max_range_uj", DEFAULT_MAX_RANGE_UJ))
        )
    if kind == "cpu_model":
        return CpuModelPowerBackend(
            idle_watts=float(config.get("idle_watts", 20.0)),
            watts_per_cpu=float(config.get("watts_per_cpu", 25.0)),
            dram_watts=float(config.get("dram_watts", 0.3)),
            max_range_uj=int(config.get("max_range_uj", DEFAULT_MAX_RANGE_UJ)),
        )
    raise ProbeUnavailable(f"unknown power backend type: {kind!r}")

