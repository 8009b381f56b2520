"""Metric taxonomy and the sample/series data model shared by all collectors.

Timestamps are milliseconds relative to run start, never wall clock; the
wall-clock anchor lives once in run metadata. Canonical internal units are
joule, watt and millisecond; microjoule appears at ingestion only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable

from .errors import UnknownMetricError


class Unit(str, Enum):
    BYTE = "byte"
    WATT = "watt"
    PERCENT = "percent"
    MICROJOULE = "microjoule"
    JOULE = "joule"
    MILLISECOND = "millisecond"
    COUNT = "count"
    REQUESTS_PER_SECOND = "requests_per_second"


class Scope(str, Enum):
    HOST = "host"
    CONTAINER = "container"
    ENDPOINT = "endpoint"


class Origin(str, Enum):
    DIRECT = "direct"
    DERIVED = "derived"


class Temporal(str, Enum):
    POINT = "point"
    CUMULATIVE = "cumulative"


class Phase(str, Enum):
    WARMUP = "warmup"
    MEASUREMENT = "measurement"


@dataclass(frozen=True)
class MetricDescriptor:
    """Name, unit and three-dimensional classification of one metric."""

    name: str
    unit: Unit
    scopes: frozenset[Scope]
    origin: Origin
    temporal: Temporal

    def __post_init__(self):
        if not self.scopes:
            raise ValueError("descriptor needs at least one scope")


def _d(name, unit, scopes, origin, temporal) -> MetricDescriptor:
    return MetricDescriptor(name, unit, frozenset(scopes), origin, temporal)


#: The six built-in metrics: memory usage, attributed CPU power, CPU
#: utilization (host and container), DRAM energy, response time, failures.
BUILTIN_DESCRIPTORS: dict[str, MetricDescriptor] = {
    d.name: d
    for d in (
        _d("memory_usage", Unit.BYTE, {Scope.CONTAINER}, Origin.DIRECT, Temporal.POINT),
        _d("cpu_power", Unit.WATT, {Scope.CONTAINER}, Origin.DIRECT, Temporal.POINT),
        _d("cpu_utilization", Unit.PERCENT, {Scope.HOST, Scope.CONTAINER}, Origin.DIRECT, Temporal.POINT),
        _d("dram_energy", Unit.MICROJOULE, {Scope.HOST}, Origin.DERIVED, Temporal.CUMULATIVE),
        _d("response_time", Unit.MILLISECOND, {Scope.ENDPOINT}, Origin.DIRECT, Temporal.POINT),
        _d("failures", Unit.COUNT, {Scope.ENDPOINT}, Origin.DIRECT, Temporal.POINT),
    )
}

#: Internal metrics used for persistence of raw data; not part of the
#: built-in classification table.
_EXTRA_DESCRIPTORS: dict[str, MetricDescriptor] = {
    d.name: d
    for d in (
        _d("cpu_energy_counter", Unit.MICROJOULE, {Scope.HOST}, Origin.DIRECT, Temporal.CUMULATIVE),
        _d("dram_energy_counter", Unit.MICROJOULE, {Scope.HOST}, Origin.DIRECT, Temporal.CUMULATIVE),
        _d("host_power", Unit.WATT, {Scope.HOST}, Origin.DERIVED, Temporal.POINT),
        _d("throughput", Unit.REQUESTS_PER_SECOND, {Scope.ENDPOINT}, Origin.DERIVED, Temporal.POINT),
    )
}

REGISTRY: dict[str, MetricDescriptor] = {**BUILTIN_DESCRIPTORS, **_EXTRA_DESCRIPTORS}


def classify(descriptor_name: str) -> MetricDescriptor:
    """Look up a registered descriptor by name."""
    try:
        return REGISTRY[descriptor_name]
    except KeyError:
        raise UnknownMetricError(f"unknown metric: {descriptor_name!r}") from None


@dataclass(frozen=True)
class Sample:
    timestamp_ms: int
    metric: MetricDescriptor
    scope_id: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"sample value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class PhaseMark:
    phase: Phase
    start_ms: int
    end_ms: int

    def __post_init__(self):
        if self.end_ms < self.start_ms:
            raise ValueError("phase end before start")

    def contains(self, t_ms: float) -> bool:
        # start inclusive, end exclusive
        return self.start_ms <= t_ms < self.end_ms


def standard_phase_marks(warmup_ms: int, duration_ms: int) -> tuple[PhaseMark, PhaseMark]:
    return (
        PhaseMark(Phase.WARMUP, 0, warmup_ms),
        PhaseMark(Phase.MEASUREMENT, warmup_ms, duration_ms),
    )


@dataclass
class SampleSeries:
    descriptor: MetricDescriptor
    scope_id: str
    samples: tuple[Sample, ...] = ()
    phase_marks: tuple[PhaseMark, ...] = ()

    def __post_init__(self):
        self.samples = tuple(self.samples)
        self.phase_marks = tuple(self.phase_marks)
        ts = [s.timestamp_ms for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("series timestamps must be strictly increasing")
        marks = self.phase_marks
        for a, b in zip(marks, marks[1:]):
            if b.start_ms < a.end_ms:
                raise ValueError("phase intervals must be disjoint and ordered")

    def __len__(self) -> int:
        return len(self.samples)

    def values(self) -> list[float]:
        return [s.value for s in self.samples]


# ---------------------------------------------------------------------------
# CSV persistence: `timestamp_ms,metric,scope_id,value`, value at 6 decimals,
# LF line endings, header row present.

CSV_HEADER = "timestamp_ms,metric,scope_id,value"


def format_sample_row(sample: Sample) -> str:
    return f"{sample.timestamp_ms},{sample.metric.name},{sample.scope_id},{sample.value:.6f}"


def write_samples_csv(samples: Iterable[Sample], fh: IO[str]) -> int:
    """Write samples in the canonical CSV row format; returns the row count."""
    fh.write(CSV_HEADER + "\n")
    n = 0
    for sample in samples:
        fh.write(format_sample_row(sample) + "\n")
        n += 1
    return n


def samples_csv_bytes(samples: Iterable[Sample]) -> bytes:
    import io

    buf = io.StringIO()
    write_samples_csv(samples, buf)
    return buf.getvalue().encode("ascii")


def read_samples_csv(fh: IO[str]) -> list[Sample]:
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"bad sample CSV header: {header!r}")
    out = []
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        ts, metric, scope_id, value = line.split(",")
        out.append(Sample(int(ts), classify(metric), scope_id, float(value)))
    return out

