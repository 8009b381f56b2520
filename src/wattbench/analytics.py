"""Aggregation of runs into comparable summaries, version comparison with
regression verdicts, and deterministic report/plot-data rendering.

Energies are computed from raw counter deltas across the measurement phase
(canonical form); integrated point power must agree with it and that
equivalence is enforced by tests, not at runtime.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field, asdict

from .errors import IncomparableRuns, NoData, SummaryError
from .loadgen import RequestRecord, throughput_series
from .metrics import Phase
from .power import CounterReading, DomainKind, EnergyDomain, delta_energy
from .store import LoadedRun

REPORT_SCHEMA = 1
# the rank-sum gate runs only when both sides have at least this many runs
MIN_RUNS_FOR_TEST = 3


@dataclass
class RunSummary:
    run_id: str
    commit_id: str
    plan_hash: str
    cpu_energy_j: float
    dram_energy_j: float
    response_ms_median: float
    response_ms_max: float
    throughput_mean_rps: float
    throughput_max_rps: float
    cpu_percent_median: float
    cpu_percent_max: float
    energy_per_request_j: float | None
    failures_total: int
    requests_total: int


@dataclass
class MetricComparison:
    baseline_stat: float | None
    candidate_stat: float | None
    delta_percent: float | None
    verdict: str  # "regression" | "improvement" | "unchanged"
    p_value: float | None = None


# harmful direction per monitored summary field: energy and latency going
# up is harmful, throughput going down is harmful
HARMFUL_DIRECTION: dict[str, str] = {
    "cpu_energy_j": "up",
    "dram_energy_j": "up",
    "energy_per_request_j": "up",
    "response_ms_median": "up",
    "throughput_mean_rps": "down",
    "cpu_percent_median": "up",
}


@dataclass
class ComparisonPolicy:
    threshold_percent: float = 5.0
    alpha: float = 0.05
    metric_names: tuple[str, ...] = tuple(HARMFUL_DIRECTION)

    @property
    def metrics(self) -> tuple[tuple[str, str], ...]:
        return tuple((name, HARMFUL_DIRECTION[name]) for name in self.metric_names)


@dataclass
class ComparisonReport:
    baseline_commit: str
    candidate_commit: str
    plan_hash: str
    per_metric: dict[str, MetricComparison]
    overall_verdict: str
    low_confidence: bool
    threshold_percent: float
    alpha: float


# ---------------------------------------------------------------------------
# Aggregation


def phase_energy_j(
    readings: list[CounterReading], domain: EnergyDomain, start_ms: int, end_ms: int
) -> float:
    """Joules over the phase from wrap-corrected counter deltas.

    Cumulative counters need readings at both boundaries, so unlike point
    samples the selection is end-inclusive: energy over [start, end] equals
    counter(end) - counter(start). Probe ticks jitter by a few ms around
    the nominal boundary, and losing a boundary reading would shift the
    window by a whole sampling interval; the selection therefore tolerates
    half a reading spacing of slack (capped at a tenth of the phase).
    """
    diffs = [c.timestamp_ms - p.timestamp_ms for p, c in zip(readings, readings[1:])]
    slack = min(statistics.median(diffs) / 2, (end_ms - start_ms) / 10) if diffs else 0
    in_phase = [r for r in readings if start_ms - slack <= r.timestamp_ms <= end_ms + slack]
    if len(in_phase) < 2:
        raise SummaryError("fewer than 2 counter readings in measurement phase")
    total_uj = sum(
        delta_energy(p.raw_uj, c.raw_uj, domain.max_range_uj)
        for p, c in zip(in_phase, in_phase[1:])
    )
    return total_uj / 1e6


def aggregate_run(run: LoadedRun) -> RunSummary:
    """Condense one valid run into the per-version table row shape."""
    record = run.record
    if not record.valid:
        raise SummaryError(f"run {record.run_id} is invalid: {record.invalid_reason}")
    warmup, duration = record.warmup_ms, record.duration_ms
    if duration <= warmup:
        raise SummaryError("measurement phase is empty")
    marks = record.phase_marks()
    measurement = marks[1]

    cpu_readings = run.counters.get(DomainKind.CPU_PACKAGE, [])
    if not cpu_readings:
        raise SummaryError("run has no CPU energy counter data")
    cpu_energy = phase_energy_j(cpu_readings, run.domain(DomainKind.CPU_PACKAGE), warmup, duration)
    dram_readings = run.counters.get(DomainKind.DRAM, [])
    dram_energy = (
        phase_energy_j(dram_readings, run.domain(DomainKind.DRAM), warmup, duration)
        if len(dram_readings) >= 2
        else 0.0
    )

    in_phase = [r for r in run.requests if measurement.contains(r.start_ms)]
    successes = [r for r in in_phase if r.success]
    latencies = [r.latency_ms for r in successes]
    response_median = statistics.median(latencies) if latencies else 0.0
    response_max = max(latencies) if latencies else 0.0

    thr = throughput_series(run.requests, 1000, marks)
    thr_values = thr.values()
    throughput_mean = statistics.fmean(thr_values) if thr_values else 0.0
    throughput_max = max(thr_values) if thr_values else 0.0

    host_cpu = [
        s.value
        for s in run.samples
        if s.metric.name == "cpu_utilization"
        and s.scope_id == "host"
        and measurement.contains(s.timestamp_ms)
    ]
    cpu_median = statistics.median(host_cpu) if host_cpu else 0.0
    cpu_max = max(host_cpu) if host_cpu else 0.0

    energy_per_request = (cpu_energy + dram_energy) / len(successes) if successes else None

    return RunSummary(
        run_id=record.run_id,
        commit_id=record.commit_id,
        plan_hash=record.plan_hash,
        cpu_energy_j=cpu_energy,
        dram_energy_j=dram_energy,
        response_ms_median=response_median,
        response_ms_max=response_max,
        throughput_mean_rps=throughput_mean,
        throughput_max_rps=throughput_max,
        cpu_percent_median=cpu_median,
        cpu_percent_max=cpu_max,
        energy_per_request_j=energy_per_request,
        failures_total=len(in_phase) - len(successes),
        requests_total=len(in_phase),
    )


def combine_commit(summaries: list[RunSummary]) -> dict:
    """One table row per commit: median over repetitions for energies,
    latencies and CPU percent; mean over repetitions for throughput."""
    if not summaries:
        raise NoData("no summaries for commit")
    med = lambda fieldname: statistics.median(getattr(s, fieldname) for s in summaries)
    mean = lambda fieldname: statistics.fmean(getattr(s, fieldname) for s in summaries)
    epr = [s.energy_per_request_j for s in summaries if s.energy_per_request_j is not None]
    return {
        "commit_id": summaries[0].commit_id,
        "runs": len(summaries),
        "cpu_energy_j": med("cpu_energy_j"),
        "dram_energy_j": med("dram_energy_j"),
        "response_ms_median": med("response_ms_median"),
        "response_ms_max": med("response_ms_max"),
        "throughput_mean_rps": mean("throughput_mean_rps"),
        "throughput_median_rps": med("throughput_mean_rps"),
        "throughput_max_rps": mean("throughput_max_rps"),
        "cpu_percent_median": med("cpu_percent_median"),
        "cpu_percent_max": med("cpu_percent_max"),
        "energy_per_request_j": statistics.median(epr) if epr else None,
        "failures_total": sum(s.failures_total for s in summaries),
        "requests_total": sum(s.requests_total for s in summaries),
    }


# ---------------------------------------------------------------------------
# Comparison


def _median_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _rank_sum_p(baseline: list[float], candidate: list[float]) -> float:
    """Exact two-sided rank-sum p-value (Mann & Whitney, 1947). Tied values
    share their mid-rank, doubled to stay an integer; ways[j][s] counts the
    j-subsets of the ranks seen so far that sum to s. p is the share of
    len(baseline)-subsets at least as far from the mean sum as the observed."""
    pooled = sorted(baseline + candidate)
    rank = {v: bisect.bisect_left(pooled, v) + bisect.bisect_right(pooled, v) + 1 for v in pooled}
    k, n = len(baseline), len(pooled)
    ways = [Counter({0: 1})] + [Counter() for _ in range(k)]
    for seen, value in enumerate(pooled):
        for j in range(min(k, seen + 1), 0, -1):
            for s, count in ways[j - 1].items():
                ways[j][s + rank[value]] += count
    mean = k * (n + 1)
    distance = abs(sum(rank[v] for v in baseline) - mean)
    extreme = sum(count for s, count in ways[k].items() if abs(s - mean) >= distance)
    return extreme / math.comb(n, k)


def _verdict(mb: float | None, mc: float | None, harmful: str, threshold_pct: float) -> str:
    """Threshold on the ratio, symmetric so that swapping the sides maps
    regression to improvement exactly."""
    if mb is None or mc is None:
        return "unchanged"
    factor = 1.0 + threshold_pct / 100.0
    if mb == 0.0:
        if mc == 0.0:
            return "unchanged"
        return "regression" if harmful == "up" else "improvement"
    ratio = mc / mb
    if ratio > factor:
        return "regression" if harmful == "up" else "improvement"
    if ratio < 1.0 / factor:
        return "improvement" if harmful == "up" else "regression"
    return "unchanged"


def compare(
    baseline: list[RunSummary],
    candidate: list[RunSummary],
    policy: ComparisonPolicy | None = None,
) -> ComparisonReport:
    policy = policy or ComparisonPolicy()
    if not baseline or not candidate:
        raise NoData("both comparison sides need at least one valid summary")
    hashes = {s.plan_hash for s in baseline} | {s.plan_hash for s in candidate}
    if len(hashes) > 1:
        raise IncomparableRuns(f"summaries span multiple plan hashes: {sorted(hashes)}")

    low_confidence = min(len(baseline), len(candidate)) < MIN_RUNS_FOR_TEST
    per_metric: dict[str, MetricComparison] = {}
    for fieldname, harmful in policy.metrics:
        b_vals = [getattr(s, fieldname) for s in baseline]
        c_vals = [getattr(s, fieldname) for s in candidate]
        mb = _median_or_none(b_vals)
        mc = _median_or_none(c_vals)
        if mb is None or mc is None:
            per_metric[fieldname] = MetricComparison(mb, mc, None, "unchanged")
            continue
        if mb == 0.0:
            delta = 0.0 if mc == 0.0 else None
        else:
            delta = (mc - mb) / mb * 100.0
        verdict = _verdict(mb, mc, harmful, policy.threshold_percent)
        p_value = None
        if not low_confidence and verdict != "unchanged":
            clean_b = [v for v in b_vals if v is not None]
            clean_c = [v for v in c_vals if v is not None]
            p_value = _rank_sum_p(clean_b, clean_c)
            if p_value >= policy.alpha:
                verdict = "unchanged"
        per_metric[fieldname] = MetricComparison(mb, mc, delta, verdict, p_value)

    overall = (
        "regression"
        if any(m.verdict == "regression" for m in per_metric.values())
        else "improvement"
        if any(m.verdict == "improvement" for m in per_metric.values())
        else "unchanged"
    )
    return ComparisonReport(
        baseline_commit=baseline[0].commit_id,
        candidate_commit=candidate[0].commit_id,
        plan_hash=baseline[0].plan_hash,
        per_metric=per_metric,
        overall_verdict=overall,
        low_confidence=low_confidence,
        threshold_percent=policy.threshold_percent,
        alpha=policy.alpha,
    )


# ---------------------------------------------------------------------------
# Rendering

_TABLE_HEADER = (
    "| Run | CPU (J) | DRAM (J) | Resp. M(Max) ms | Thr. M(Max) | CPU % M(Max) |\n"
    "|---|---|---|---|---|---|\n"
)


def _commit_row(row: dict) -> str:
    return (
        f"| {row['commit_id']} "
        f"| {row['cpu_energy_j']:.2f} "
        f"| {row['dram_energy_j']:.2f} "
        f"| {row['response_ms_median']:.2f} ({row['response_ms_max']:.2f}) "
        f"| {row['throughput_mean_rps']:.1f} ({row['throughput_max_rps']:.1f}) "
        f"| {row['cpu_percent_median']:.1f} ({row['cpu_percent_max']:.1f}) |\n"
    )


def render_report(obj, fmt: str = "json") -> bytes:
    """Deterministic bytes for a ComparisonReport or a list of RunSummary."""
    if fmt not in ("json", "markdown"):
        raise ValueError(f"unknown report format: {fmt!r}")
    if isinstance(obj, ComparisonReport):
        return _render_comparison(obj, fmt)
    return _render_summaries(list(obj), fmt)


def _group_by_commit(summaries: list[RunSummary]) -> dict[str, list[RunSummary]]:
    grouped: dict[str, list[RunSummary]] = {}
    for s in summaries:
        grouped.setdefault(s.commit_id, []).append(s)
    return grouped


def _render_summaries(summaries: list[RunSummary], fmt: str) -> bytes:
    grouped = _group_by_commit(summaries)
    rows = [combine_commit(group) for group in grouped.values()]
    if fmt == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "commits": rows,
            "runs": [asdict(s) for s in summaries],
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    lines = ["# Run summary\n\n"]
    if not rows:
        lines.append("_no runs selected_\n")
    else:
        lines.append(_TABLE_HEADER)
        lines.extend(_commit_row(row) for row in rows)
    return "".join(lines).encode("utf-8")


def _render_comparison(report: ComparisonReport, fmt: str) -> bytes:
    if fmt == "json":
        doc = {"schema": REPORT_SCHEMA, **asdict(report)}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    lines = [
        f"# Comparison: {report.baseline_commit} -> {report.candidate_commit}\n\n",
        f"Overall verdict: **{report.overall_verdict}**"
        + (f" (low statistical confidence: fewer than {MIN_RUNS_FOR_TEST} repetitions)"
           if report.low_confidence else "")
        + "\n\n",
        "| Metric | Baseline | Candidate | Delta % | Verdict | p-value |\n",
        "|---|---|---|---|---|---|\n",
    ]
    for name, m in report.per_metric.items():
        delta = f"{m.delta_percent:+.1f}" if m.delta_percent is not None else "n/a"
        p = f"{m.p_value:.4f}" if m.p_value is not None else "-"
        b = f"{m.baseline_stat:.4f}" if m.baseline_stat is not None else "n/a"
        c = f"{m.candidate_stat:.4f}" if m.candidate_stat is not None else "n/a"
        lines.append(f"| {name} | {b} | {c} | {delta} | {m.verdict} | {p} |\n")
    return "".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# Plot data

PLOT_KINDS = ("response_time", "cpu_utilization", "power")


def five_number_summary(values: list[float]) -> dict[str, float]:
    """Min, Tukey-hinge quartiles, median, max; even-count medians are the
    mean of the two central values."""
    if not values:
        raise ValueError("cannot summarize an empty dataset")
    ordered = sorted(values)
    n = len(ordered)
    half = n // 2
    lower = ordered[:half]
    upper = ordered[half + (n % 2):]
    return {
        "min": ordered[0],
        "q1": statistics.median(lower) if lower else ordered[0],
        "median": statistics.median(ordered),
        "q3": statistics.median(upper) if upper else ordered[-1],
        "max": ordered[-1],
    }


def _power_points(run: LoadedRun) -> list[float]:
    from .power import power_from_counters

    readings = run.counters.get(DomainKind.CPU_PACKAGE, [])
    mark = run.record.phase_marks()[1]
    in_phase = [r for r in readings if mark.contains(r.timestamp_ms)]
    if len(in_phase) < 2:
        return []
    trace = power_from_counters(in_phase, run.domain(DomainKind.CPU_PACKAGE))
    return trace.points.values()


def plot_values(run: LoadedRun, kind: str) -> list[float]:
    mark = run.record.phase_marks()[1]
    if kind == "response_time":
        return [
            r.latency_ms for r in run.requests if r.success and mark.contains(r.start_ms)
        ]
    if kind == "cpu_utilization":
        return [
            s.value
            for s in run.samples
            if s.metric.name == "cpu_utilization"
            and s.scope_id == "host"
            and mark.contains(s.timestamp_ms)
        ]
    if kind == "power":
        return _power_points(run)
    raise ValueError(f"unknown plot kind: {kind!r}")


def export_plot_data(runs_by_commit: dict[str, list[LoadedRun]], kind: str) -> bytes:
    """Per-version raw distributions plus five-number summaries, as JSON
    arrays ready for external boxplot rendering."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind: {kind!r}")
    versions = {}
    for commit, runs in runs_by_commit.items():
        values: list[float] = []
        for run in runs:
            values.extend(plot_values(run, kind))
        versions[commit] = {
            "values": values,
            "summary": five_number_summary(values) if values else None,
        }
    doc = {"schema": REPORT_SCHEMA, "kind": kind, "versions": versions}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
