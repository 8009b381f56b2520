"""Closed-loop HTTP load generation with per-request latency and failure
records.

Each virtual user executes the scenario's operation list cyclically with at
most one outstanding request, sleeping a fixed think time between
operations. A record's start time places it in the warm-up or measurement
phase; requests still in flight when the duration elapses are drained and
recorded.
"""

from __future__ import annotations

import configparser
import io
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Sequence

import requests

from .errors import ConfigError, TargetDown
from .metrics import Phase, PhaseMark, Sample, SampleSeries, classify


@dataclass(frozen=True)
class Operation:
    name: str
    method: str
    path: str
    body_template: str = ""
    expected_status: int = 200


@dataclass
class Scenario:
    operations: list[Operation]
    think_time_ms: float
    credentials_pool: list[dict[str, str]] = field(default_factory=list)
    probe_path: str = "/health"

    def __post_init__(self):
        if not self.operations:
            raise ConfigError("scenario needs at least one operation")
        if self.think_time_ms < 0:
            raise ConfigError("think_time_ms must be >= 0")


@dataclass(frozen=True)
class RequestRecord:
    endpoint: str
    user_index: int
    start_ms: int
    latency_ms: float
    outcome: str  # "success" | "failure:status_<n>" | "failure:transport"

    @property
    def success(self) -> bool:
        return self.outcome == "success"


@dataclass
class LoadResult:
    records: list[RequestRecord]


def parse_scenario(text: str) -> Scenario:
    """Parse the declarative scenario text (key-value sections plus one
    [operation:<name>] section per operation)."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if "scenario" not in parser:
        raise ConfigError("scenario file needs a [scenario] section")
    section = parser["scenario"]
    think = section.getfloat("think_time_ms", 0.0)
    probe = section.get("probe_path", "/health")
    credentials = []
    for entry in section.get("credentials", "").split():
        user, _, password = entry.partition(":")
        credentials.append({"user": user, "pass": password})
    operations = []
    for name in parser.sections():
        if not name.startswith("operation:"):
            continue
        op = parser[name]
        if "path" not in op:
            raise ConfigError(f"[{name}] is missing key: path")
        operations.append(
            Operation(
                name=name.split(":", 1)[1],
                method=op.get("method", "POST").upper(),
                path=op["path"],
                body_template=op.get("body", ""),
                expected_status=op.getint("expected_status", 200),
            )
        )
    if not operations:
        raise ConfigError("scenario file defines no operations")
    return Scenario(operations, think, credentials, probe)


def _render_body(template: str, credential: dict[str, str]) -> str:
    body = template
    for key, value in credential.items():
        body = body.replace("{" + key + "}", value)
    return body


class _VirtualUser(threading.Thread):
    def __init__(self, index, scenario, target, t0, duration_ms, think_s, sink, sink_lock):
        super().__init__(daemon=True)
        self.index = index
        self.scenario = scenario
        self.target = target.rstrip("/")
        self.t0 = t0
        self.deadline = t0 + duration_ms / 1e3
        self.duration_ms = duration_ms
        self.think_s = think_s
        self.sink = sink
        self.sink_lock = sink_lock
        pool = scenario.credentials_pool or [{"user": f"user{index}", "pass": "secret"}]
        # each user starts at a different pool offset and cycles from there
        self.credentials = itertools.cycle(pool[index % len(pool):] + pool[: index % len(pool)])

    def run(self):
        session = requests.Session()
        ops = itertools.cycle(self.scenario.operations)
        try:
            while True:
                now_ms = int(round((time.monotonic() - self.t0) * 1e3))
                if now_ms >= self.duration_ms:
                    break
                op = next(ops)
                record = self._execute(session, op, now_ms)
                with self.sink_lock:
                    self.sink.append(record)
                if self.think_s > 0:
                    # think time never runs past the deadline
                    time.sleep(max(0.0, min(self.think_s, self.deadline - time.monotonic())))
        finally:
            session.close()

    def _execute(self, session, op: Operation, start_ms: int) -> RequestRecord:
        body = _render_body(op.body_template, next(self.credentials))
        t_start = time.monotonic()
        try:
            response = session.request(
                op.method,
                self.target + op.path,
                data=body.encode("utf-8") if body else None,
                headers={"Content-Type": "application/json"} if body else None,
                timeout=30,
            )
            latency_ms = (time.monotonic() - t_start) * 1e3
            if response.status_code == op.expected_status:
                outcome = "success"
            else:
                outcome = f"failure:status_{response.status_code}"
        except requests.RequestException:
            latency_ms = (time.monotonic() - t_start) * 1e3
            outcome = "failure:transport"
        return RequestRecord(op.name, self.index, start_ms, max(latency_ms, 1e-6), outcome)


def run_scenario(
    scenario: Scenario,
    users: int,
    duration_ms: int,
    warmup_ms: int,
    target: str,
    think_time_ms: float | None = None,
) -> LoadResult:
    """Drive the closed-loop workload and return records sorted by start."""
    if users < 1:
        raise ValueError("users must be >= 1")
    if not 0 <= warmup_ms < duration_ms:
        raise ValueError("need duration > warmup >= 0")
    think_ms = scenario.think_time_ms if think_time_ms is None else think_time_ms

    probe_url = target.rstrip("/") + scenario.probe_path
    try:
        probe = requests.get(probe_url, timeout=10)
        probe.raise_for_status()
    except requests.RequestException as exc:
        raise TargetDown(f"probe request to {probe_url} failed: {exc}") from exc

    sink: list[RequestRecord] = []
    sink_lock = threading.Lock()
    t0 = time.monotonic()
    threads = [
        _VirtualUser(i, scenario, target, t0, duration_ms, think_ms / 1e3, sink, sink_lock)
        for i in range(users)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()  # drains in-flight requests past the deadline

    records = sorted(sink, key=lambda r: (r.start_ms, r.user_index))
    return LoadResult(records)


def throughput_series(
    records: Sequence[RequestRecord],
    bucket_ms: int,
    phase_marks: Sequence[PhaseMark],
) -> SampleSeries:
    """Successful-request rate per bucket over the measurement phase only."""
    if bucket_ms <= 0:
        raise ValueError("bucket_ms must be > 0")
    mark = next((m for m in phase_marks if m.phase == Phase.MEASUREMENT), None)
    if mark is None or not records:
        return SampleSeries(classify("throughput"), "all", (), tuple(phase_marks))
    n_buckets = (mark.end_ms - mark.start_ms) // bucket_ms
    counts = [0] * n_buckets
    for record in records:
        if not record.success or not mark.contains(record.start_ms):
            continue
        idx = (record.start_ms - mark.start_ms) // bucket_ms
        if idx < n_buckets:
            counts[idx] += 1
    desc = classify("throughput")
    samples = tuple(
        Sample(mark.start_ms + (i + 1) * bucket_ms, desc, "all", c / (bucket_ms / 1e3))
        for i, c in enumerate(counts)
    )
    return SampleSeries(desc, "all", samples, tuple(phase_marks))


# ---------------------------------------------------------------------------
# Request-record CSV: `start_ms,endpoint,user,latency_ms,outcome`

REQUESTS_CSV_HEADER = "start_ms,endpoint,user,latency_ms,outcome"


def write_records_csv(records: Sequence[RequestRecord], fh: IO[str]) -> int:
    fh.write(REQUESTS_CSV_HEADER + "\n")
    for r in records:
        fh.write(f"{r.start_ms},{r.endpoint},{r.user_index},{r.latency_ms:.6f},{r.outcome}\n")
    return len(records)


def records_csv_bytes(records: Sequence[RequestRecord]) -> bytes:
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue().encode("ascii")


def read_records_csv(fh: IO[str]) -> list[RequestRecord]:
    header = fh.readline().rstrip("\n")
    if header != REQUESTS_CSV_HEADER:
        raise ValueError(f"bad request CSV header: {header!r}")
    out = []
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        start_ms, endpoint, user, latency_ms, outcome = line.split(",")
        out.append(RequestRecord(endpoint, int(user), int(start_ms), float(latency_ms), outcome))
    return out
