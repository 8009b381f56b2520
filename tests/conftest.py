"""Shared fixtures and synthetic-run builders."""

from __future__ import annotations

import io
import time

import pytest

from wattbench.agent import AgentState
from wattbench.loadgen import RequestRecord
from wattbench.metrics import Sample, classify, read_samples_csv
from wattbench.power import CounterReading, DomainKind
from wattbench.store import LoadedRun, RunManifest, RunRecord

BIG_RANGE_UJ = 2**48  # large enough that synthetic traces never wrap


def make_counters(watts: float, duration_ms: int, interval_ms: int = 1000) -> list[CounterReading]:
    """Cumulative readings for a constant-power source sampled on schedule."""
    return [
        CounterReading(t, int(watts * t * 1000))  # W * ms = 1000 uJ
        for t in range(0, duration_ms + 1, interval_ms)
    ]


def make_requests(
    n_success: int,
    warmup_ms: int,
    duration_ms: int,
    latency_ms: float = 25.0,
    n_failures: int = 0,
    endpoint: str = "login",
) -> list[RequestRecord]:
    span = duration_ms - warmup_ms
    records = [
        RequestRecord(endpoint, i % 10, warmup_ms + i * span // n_success, latency_ms, "success")
        for i in range(n_success)
    ]
    records += [
        RequestRecord(endpoint, 0, warmup_ms + i * span // max(n_failures, 1),
                      latency_ms, "failure:status_500")
        for i in range(n_failures)
    ]
    return sorted(records, key=lambda r: r.start_ms)


def make_loaded_run(
    run_id: str = "r1",
    commit_id: str = "c1",
    plan_hash: str = "plan0001",
    warmup_ms: int = 10_000,
    duration_ms: int = 110_000,
    cpu_watts: float = 10.0,
    dram_watts: float = 0.3,
    interval_ms: int = 1000,
    n_success: int = 1260,
    latency_ms: float = 25.0,
    host_cpu_percent: float = 33.3,
    extra_samples: list[Sample] | None = None,
    extra_requests: list[RequestRecord] | None = None,
) -> LoadedRun:
    record = RunRecord(
        run_id=run_id,
        commit_id=commit_id,
        plan_id="plan",
        plan_hash=plan_hash,
        repetition_index=0,
        status="valid",
        warmup_ms=warmup_ms,
        duration_ms=duration_ms,
        domains=[
            {"kind": "cpu_package", "max_range_uj": BIG_RANGE_UJ},
            {"kind": "dram", "max_range_uj": BIG_RANGE_UJ},
        ],
    )
    counters = {
        DomainKind.CPU_PACKAGE: make_counters(cpu_watts, duration_ms, interval_ms),
        DomainKind.DRAM: make_counters(dram_watts, duration_ms, interval_ms),
    }
    cpu_desc = classify("cpu_utilization")
    samples = [
        Sample(t, cpu_desc, "host", host_cpu_percent)
        for t in range(interval_ms, duration_ms + 1, interval_ms)
    ]
    if extra_samples:
        samples = sorted(samples + extra_samples, key=lambda s: s.timestamp_ms)
    requests = make_requests(n_success, warmup_ms, duration_ms, latency_ms)
    if extra_requests:
        requests = sorted(requests + extra_requests, key=lambda r: r.start_ms)
    manifest = RunManifest(run_id, commit_id, plan_hash, "valid", "2026-01-01T00:00:00+00:00", [])
    return LoadedRun(record, manifest, counters, samples, requests)


@pytest.fixture
def loaded_run() -> LoadedRun:
    return make_loaded_run()


def _profile_dir(tmp_path, cpu_watts=10.0, dram_watts=0.5):
    d = tmp_path / "profile"
    d.mkdir(exist_ok=True)
    (d / "cpu_package.csv").write_text(f"t_ms,watts\n0,{cpu_watts}\n")
    (d / "dram.csv").write_text(f"t_ms,watts\n0,{dram_watts}\n")
    return d


def _stats_csv(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text(
        "t_ms,container_id,memory_bytes,cpu_usage_usec\n"
        + "\n".join(
            f"{t},c{i},{1000 * (i + 1)},{t * 50 * i}"
            for t in range(0, 5000, 100)
            for i in (1, 2)
        )
        + "\n"
    )
    return path


def agent_config(tmp_path, with_stats=True, interval_ms=100):
    """A start_monitoring config: constant-power profile counters and, with
    ``with_stats``, scripted stats for containers c1 and c2."""
    config = {
        "power": {"type": "profile", "dir": str(_profile_dir(tmp_path))},
        "interval_ms": interval_ms,
    }
    if with_stats:
        config["stats"] = {"type": "scripted", "path": str(_stats_csv(tmp_path))}
        config["containers"] = ["c1", "c2"]
    return config


def collect_session(tmp_path, config, seconds, registry=None):
    """Run one session on an in-process agent; returns the stop reply and
    the stored files parsed into samples."""
    state = AgentState(str(tmp_path / "spool"), registry)
    reply = state.handle_start("run", config)
    assert reply["status"] == "ok", reply
    time.sleep(seconds)
    stop = state.handle_stop("run")
    files = {
        name: read_samples_csv(io.StringIO(data.decode("ascii")))
        for name, data in state.stopped["run"].files.items()
    }
    return stop, files


def sample_timestamps(samples, metric=None):
    return [s.timestamp_ms for s in samples if metric is None or s.metric.name == metric]
