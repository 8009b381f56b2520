import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wattbench.analytics import (
    HARMFUL_DIRECTION,
    ComparisonPolicy,
    RunSummary,
    _rank_sum_p,
    aggregate_run,
    combine_commit,
    compare,
    export_plot_data,
    five_number_summary,
    phase_energy_j,
    plot_values,
    render_report,
)
from wattbench.errors import IncomparableRuns, NoData, SummaryError
from wattbench.loadgen import RequestRecord
from wattbench.metrics import Sample, classify
from wattbench.power import CounterReading, DomainKind, EnergyDomain

from conftest import BIG_RANGE_UJ, make_counters, make_loaded_run

GOLDEN = Path(__file__).parent / "golden"


def make_summary(run_id="r1", commit_id="v1", plan_hash="ph1", cpu=886.75, dram=29.71,
                 rmed=26.5, rmax=39.4, tmean=12.6, tmax=13.8, cmed=33.3, cmax=45.6,
                 epr=None, failures=0, requests=1260):
    if epr is None:
        epr = (cpu + dram) / max(requests, 1)
    return RunSummary(run_id, commit_id, plan_hash, cpu, dram, rmed, rmax,
                      tmean, tmax, cmed, cmax, epr, failures, requests)


class TestPhaseEnergy:
    DOMAIN = EnergyDomain(DomainKind.CPU_PACKAGE, "test", BIG_RANGE_UJ)

    def test_constant_ten_watts_over_100s_is_1000_joules(self):
        readings = make_counters(10.0, 110_000)
        assert phase_energy_j(readings, self.DOMAIN, 10_000, 110_000) == 1000.0

    def test_selection_is_end_inclusive(self):
        # energy over [start, end] needs the closing boundary reading
        readings = [CounterReading(t, t * 1000) for t in (0, 50_000, 100_000)]
        assert phase_energy_j(readings, self.DOMAIN, 0, 100_000) == 100.0

    def test_wrap_corrected(self):
        domain = EnergyDomain(DomainKind.CPU_PACKAGE, "test", 1_000_000)
        readings = [CounterReading(0, 900_000), CounterReading(1000, 100_000)]
        assert phase_energy_j(readings, domain, 0, 1000) == 0.2

    def test_boundary_readings_kept_despite_tick_jitter(self):
        # probe ticks land a few ms off the nominal boundary; the window
        # must still span the full phase instead of dropping an interval
        jittered = [CounterReading(t, t * 1000) for t in
                    (0, 101, 199, 299, 401, 499, 601, 699, 801, 899, 1001, 1099,
                     1201, 1299, 1401, 1501)]
        energy = phase_energy_j(jittered, self.DOMAIN, 300, 1500)
        assert energy == pytest.approx(1.2, rel=0.01)  # 1 W over ~1.2 s

    def test_too_few_in_phase_readings_rejected(self):
        readings = [CounterReading(0, 0), CounterReading(200_000, 1)]
        with pytest.raises(SummaryError):
            phase_energy_j(readings, self.DOMAIN, 10_000, 110_000)


class TestAggregateRun:
    def test_reference_run_summary(self, loaded_run):
        s = aggregate_run(loaded_run)
        assert s.cpu_energy_j == 1000.0  # 10 W over the 100 s measurement phase
        assert s.dram_energy_j == pytest.approx(30.0)
        assert s.response_ms_median == 25.0
        assert s.response_ms_max == 25.0
        assert s.throughput_mean_rps == pytest.approx(12.6)
        assert s.cpu_percent_median == pytest.approx(33.3)
        assert s.energy_per_request_j == pytest.approx(1030.0 / 1260)
        assert s.failures_total == 0
        assert s.requests_total == 1260

    def test_energy_scales_linearly_with_power(self):
        base = aggregate_run(make_loaded_run(cpu_watts=10.0))
        double = aggregate_run(make_loaded_run(cpu_watts=20.0))
        assert double.cpu_energy_j == pytest.approx(2 * base.cpu_energy_j)

    def test_warmup_data_is_fully_excluded(self):
        # inject pathological warmup-phase traffic and samples: the summary
        # must be identical to the run without them
        clean = aggregate_run(make_loaded_run())
        cpu_desc = classify("cpu_utilization")
        noisy = make_loaded_run(
            extra_samples=[Sample(t, cpu_desc, "host", 99.9) for t in (100, 5_500, 9_999)],
            extra_requests=[
                RequestRecord("login", 0, 100, 5000.0, "success"),
                RequestRecord("login", 1, 9_999, 4000.0, "failure:status_500"),
            ],
        )
        assert aggregate_run(noisy) == clean

    def test_failures_counted_not_aggregated(self):
        run = make_loaded_run(extra_requests=[
            RequestRecord("login", 0, 50_000, 9999.0, "failure:status_500"),
            RequestRecord("login", 0, 60_000, 9999.0, "failure:transport"),
        ])
        s = aggregate_run(run)
        assert s.failures_total == 2
        assert s.response_ms_max == 25.0  # failed latencies never pollute stats

    def test_invalid_run_rejected(self):
        run = make_loaded_run()
        run.record.status = "invalid"
        run.record.invalid_reason = "degraded"
        with pytest.raises(SummaryError):
            aggregate_run(run)

    def test_missing_cpu_counters_rejected(self):
        run = make_loaded_run()
        run.counters.pop(DomainKind.CPU_PACKAGE)
        with pytest.raises(SummaryError):
            aggregate_run(run)

    def test_no_successes_yields_no_energy_per_request(self):
        run = make_loaded_run(n_success=1)
        run.requests = [RequestRecord("login", 0, 50_000, 10.0, "failure:status_500")]
        s = aggregate_run(run)
        assert s.energy_per_request_j is None
        assert s.response_ms_median == 0.0


class TestCombineCommit:
    def test_median_for_energy_mean_for_throughput(self):
        summaries = [
            make_summary("r1", cpu=900.0, tmean=10.0),
            make_summary("r2", cpu=1000.0, tmean=12.0),
            make_summary("r3", cpu=5000.0, tmean=14.0),  # outlier damped by median
        ]
        row = combine_commit(summaries)
        assert row["cpu_energy_j"] == 1000.0
        assert row["throughput_mean_rps"] == 12.0
        assert row["runs"] == 3
        assert row["requests_total"] == 3 * 1260

    def test_empty_rejected(self):
        with pytest.raises(NoData):
            combine_commit([])


class TestCompareVerdicts:
    def test_known_heavy_regression_delta(self):
        baseline = [make_summary("r2", "v2", cpu=882.70)]
        candidate = [make_summary("r3", "v3", cpu=1381.91)]
        report = compare(baseline, candidate)
        m = report.per_metric["cpu_energy_j"]
        assert m.delta_percent == pytest.approx(56.6, abs=0.1)
        assert m.verdict == "regression"
        assert report.overall_verdict == "regression"
        assert report.low_confidence is True

    def test_known_optimization_delta(self):
        baseline = [make_summary("r3", "v3", cpu=1381.91)]
        candidate = [make_summary("r4", "v4", cpu=1290.71)]
        report = compare(baseline, candidate)
        m = report.per_metric["cpu_energy_j"]
        assert m.delta_percent == pytest.approx(-6.6, abs=0.1)
        assert m.verdict == "improvement"
        assert report.overall_verdict == "improvement"

    def test_within_threshold_is_unchanged(self):
        baseline = [make_summary("r1", "v1", cpu=886.75)]
        candidate = [make_summary("r2", "v2", cpu=882.70)]
        report = compare(baseline, candidate)
        assert report.per_metric["cpu_energy_j"].verdict == "unchanged"
        assert report.overall_verdict == "unchanged"

    def test_throughput_drop_is_a_regression(self):
        report = compare([make_summary(tmean=12.6)], [make_summary(tmean=10.0)])
        assert report.per_metric["throughput_mean_rps"].verdict == "regression"

    def test_mixed_metrics_regression_wins_overall(self):
        baseline = [make_summary(cpu=1000.0, rmed=30.0)]
        candidate = [make_summary(cpu=800.0, rmed=50.0)]  # energy better, latency worse
        report = compare(baseline, candidate)
        assert report.per_metric["cpu_energy_j"].verdict == "improvement"
        assert report.per_metric["response_ms_median"].verdict == "regression"
        assert report.overall_verdict == "regression"

    def test_policy_can_restrict_metric_set(self):
        baseline = [make_summary(cpu=1000.0, rmed=30.0)]
        candidate = [make_summary(cpu=1000.0, rmed=100.0)]
        policy = ComparisonPolicy(metric_names=("cpu_energy_j",))
        report = compare(baseline, candidate, policy)
        assert set(report.per_metric) == {"cpu_energy_j"}
        assert report.overall_verdict == "unchanged"

    def test_plan_hash_mismatch_rejected(self):
        with pytest.raises(IncomparableRuns):
            compare([make_summary(plan_hash="a")], [make_summary(plan_hash="b")])

    def test_empty_side_rejected(self):
        with pytest.raises(NoData):
            compare([], [make_summary()])

    def test_missing_energy_per_request_is_unchanged_not_crash(self):
        baseline = [make_summary(epr=0.0)]
        candidate = [make_summary(epr=0.0)]
        baseline[0].energy_per_request_j = None
        report = compare(baseline, candidate)
        assert report.per_metric["energy_per_request_j"].verdict == "unchanged"
        assert report.per_metric["energy_per_request_j"].delta_percent is None


class TestStatisticalGate:
    def _reps(self, commit, values):
        return [make_summary(f"{commit}-{i}", commit, cpu=v) for i, v in enumerate(values)]

    def test_four_reps_enable_rank_sum_test(self):
        baseline = self._reps("v1", [1000.0, 1010.0, 990.0, 1005.0])
        candidate = self._reps("v2", [1500.0, 1510.0, 1490.0, 1505.0])
        report = compare(baseline, candidate)
        assert report.low_confidence is False
        m = report.per_metric["cpu_energy_j"]
        assert m.p_value is not None and m.p_value < 0.05
        assert m.verdict == "regression"

    def test_three_reps_run_the_test_but_cannot_reject_at_default_alpha(self):
        # with 3v3 samples the exact two-sided rank-sum p-value is at least
        # 0.1, so a 0.05 gate always downgrades; raising alpha restores the
        # threshold verdict
        baseline = self._reps("v1", [1000.0, 1010.0, 990.0])
        candidate = self._reps("v2", [1500.0, 1510.0, 1490.0])
        report = compare(baseline, candidate)
        assert report.low_confidence is False
        m = report.per_metric["cpu_energy_j"]
        assert m.p_value == pytest.approx(0.1)
        assert m.verdict == "unchanged"
        relaxed = compare(baseline, candidate, ComparisonPolicy(alpha=0.11))
        assert relaxed.per_metric["cpu_energy_j"].verdict == "regression"

    def test_insignificant_difference_downgraded_to_unchanged(self):
        # medians differ by >5% but the samples interleave heavily
        baseline = self._reps("v1", [1000.0, 1200.0, 900.0, 1100.0])
        candidate = self._reps("v2", [1060.0, 1210.0, 910.0, 1090.0])
        report = compare(baseline, candidate)
        m = report.per_metric["cpu_energy_j"]
        if m.p_value is not None and m.p_value >= 0.05:
            assert m.verdict == "unchanged"

    def test_under_three_reps_no_p_value_and_flagged(self):
        report = compare(self._reps("v1", [1000.0, 1000.0]),
                         self._reps("v2", [2000.0, 2000.0]))
        assert report.low_confidence is True
        assert report.per_metric["cpu_energy_j"].p_value is None
        assert report.per_metric["cpu_energy_j"].verdict == "regression"

    def test_all_identical_values_never_significant(self):
        baseline = self._reps("v1", [1000.0, 1000.0, 1000.0])
        candidate = self._reps("v2", [1000.0, 1000.0, 1000.0])
        report = compare(baseline, candidate)
        assert report.per_metric["cpu_energy_j"].verdict == "unchanged"

    def test_four_reps_full_separation_is_the_smallest_p(self):
        # 2 / C(8, 4): only the two fully separated splits are as extreme
        baseline = self._reps("v1", [1000.0, 1010.0, 990.0, 1005.0])
        candidate = self._reps("v2", [1500.0, 1510.0, 1490.0, 1505.0])
        m = compare(baseline, candidate).per_metric["cpu_energy_j"]
        assert m.p_value == pytest.approx(2 / 70)
        assert m.verdict == "regression"

    def test_tied_throughputs_at_three_reps_cannot_reject(self):
        # whole-second request counts tie; the exact test still cannot go
        # below 2 / C(6, 3) = 0.1 at three runs per side
        baseline = [make_summary(f"b{i}", "v1", tmean=18.0) for i in range(3)]
        candidate = [make_summary(f"c{i}", "v2", tmean=14.0) for i in range(3)]
        policy = ComparisonPolicy(metric_names=("throughput_mean_rps",))
        report = compare(baseline, candidate, policy)
        m = report.per_metric["throughput_mean_rps"]
        assert m.p_value == pytest.approx(0.1)
        assert m.verdict == "unchanged"
        assert report.overall_verdict == "unchanged"


def _brute_force_p(baseline, candidate):
    """Share of all splits of the pooled values into sides of the observed
    sizes whose Mann-Whitney U lies at least as far from its mean as the
    observed U. U is counted pair by pair, a tie counting one half."""
    pooled = baseline + candidate
    k = len(baseline)

    def twice_u(chosen):
        xs = [pooled[i] for i in chosen]
        ys = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        return sum(2 * (x > y) + (x == y) for x in xs for y in ys)

    centre = k * len(candidate)
    observed = abs(twice_u(set(range(k))) - centre)
    splits = [set(c) for c in itertools.combinations(range(len(pooled)), k)]
    return sum(abs(twice_u(c) - centre) >= observed for c in splits) / len(splits)


class TestExactRankSum:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 3).map(float), min_size=1, max_size=6),
        st.lists(st.integers(0, 3).map(float), min_size=1, max_size=6),
    )
    def test_matches_enumeration_over_all_splits_with_ties(self, b_vals, c_vals):
        p = _rank_sum_p(b_vals, c_vals)
        assert p == _brute_force_p(b_vals, c_vals)
        assert p == _rank_sum_p(c_vals, b_vals)

    def test_tie_free_small_samples_match_published_values(self):
        def side(lo, n):
            return [float(v) for v in range(lo, lo + n)]

        assert _rank_sum_p(side(0, 3), side(3, 3)) == pytest.approx(0.1)
        assert _rank_sum_p(side(0, 4), side(4, 4)) == pytest.approx(0.0286, abs=1e-4)
        assert _rank_sum_p(side(0, 5), side(5, 5)) == pytest.approx(0.00794, abs=1e-5)
        interleaved = _rank_sum_p([1000.0, 1200.0, 900.0, 1100.0],
                                  [1060.0, 1210.0, 910.0, 1090.0])
        assert interleaved == pytest.approx(0.8857, abs=1e-4)

    def test_all_identical_values_give_one(self):
        assert _rank_sum_p([5.0] * 3, [5.0] * 3) == 1.0


class TestComparisonSymmetry:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=5),
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=5),
    )
    def test_swapping_sides_flips_regression_and_improvement(self, b_vals, c_vals):
        baseline = [make_summary(f"b{i}", "vb", cpu=v) for i, v in enumerate(b_vals)]
        candidate = [make_summary(f"c{i}", "vc", cpu=v) for i, v in enumerate(c_vals)]
        policy = ComparisonPolicy(metric_names=("cpu_energy_j",))
        forward = compare(baseline, candidate, policy).per_metric["cpu_energy_j"].verdict
        backward = compare(candidate, baseline, policy).per_metric["cpu_energy_j"].verdict
        flip = {"regression": "improvement", "improvement": "regression",
                "unchanged": "unchanged"}
        assert backward == flip[forward]


class TestRendering:
    def _two_commit_summaries(self):
        return [
            make_summary("r1", "v1", cpu=886.75, dram=29.71, rmed=26.5, rmax=39.4,
                         tmean=12.6, tmax=13.8, cmed=33.3, cmax=45.6),
            make_summary("r2", "v2", cpu=882.70, dram=30.01, rmed=26.9, rmax=40.1,
                         tmean=12.6, tmax=13.9, cmed=33.5, cmax=44.9),
        ]

    def test_summary_markdown_matches_golden(self):
        rendered = render_report(self._two_commit_summaries(), "markdown")
        assert rendered == (GOLDEN / "summary_report.md").read_bytes()

    def test_comparison_markdown_matches_golden(self):
        baseline = [self._two_commit_summaries()[1]]
        candidate = [make_summary("r3", "v3", cpu=1381.91, dram=30.01, rmed=26.9,
                                  rmax=40.1, tmean=12.6, tmax=13.9, cmed=33.5, cmax=44.9)]
        rendered = render_report(compare(baseline, candidate), "markdown")
        assert rendered == (GOLDEN / "comparison_report.md").read_bytes()

    def test_json_summary_is_schema_tagged_and_deterministic(self):
        summaries = self._two_commit_summaries()
        first = render_report(summaries, "json")
        assert first == render_report(summaries, "json")
        doc = json.loads(first)
        assert doc["schema"] == 1
        assert [c["commit_id"] for c in doc["commits"]] == ["v1", "v2"]
        assert len(doc["runs"]) == 2

    def test_json_comparison_carries_policy_parameters(self):
        report = compare([make_summary(commit_id="a")], [make_summary(commit_id="b")])
        doc = json.loads(render_report(report, "json"))
        assert doc["threshold_percent"] == 5.0
        assert doc["alpha"] == 0.05
        assert set(doc["per_metric"]) == set(HARMFUL_DIRECTION)

    def test_empty_summary_list_renders_placeholder(self):
        assert b"_no runs selected_" in render_report([], "markdown")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "pdf")


def _quantile_oracle(values):
    """Index-arithmetic quartiles (halves exclude a central element)."""
    v = sorted(values)
    n = len(v)
    h = n // 2

    def mid(lo, hi):  # median of v[lo:hi] by direct indexing
        m = hi - lo
        c = lo + m // 2
        return v[c] if m % 2 else (v[c - 1] + v[c]) / 2

    return {
        "min": v[0],
        "q1": mid(0, h) if h else v[0],
        "median": mid(0, n),
        "q3": mid(n - h, n) if h else v[-1],
        "max": v[-1],
    }


class TestFiveNumberSummary:
    def test_worked_odd_example(self):
        assert five_number_summary([7, 1, 3, 5, 9]) == {
            "min": 1, "q1": 2.0, "median": 5, "q3": 8.0, "max": 9,
        }

    def test_worked_even_example(self):
        assert five_number_summary([4, 1, 3, 2]) == {
            "min": 1, "q1": 1.5, "median": 2.5, "q3": 3.5, "max": 4,
        }

    def test_singleton(self):
        assert five_number_summary([5.0]) == {
            "min": 5.0, "q1": 5.0, "median": 5.0, "q3": 5.0, "max": 5.0,
        }

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            five_number_summary([])

    def test_matches_sort_based_oracle_on_1000_random_datasets(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 200)
            values = [rng.uniform(-1e6, 1e6) for _ in range(n)]
            assert five_number_summary(values) == _quantile_oracle(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=100))
    def test_ordering_and_permutation_invariance(self, values):
        s = five_number_summary(values)
        assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
        shuffled = list(values)
        random.Random(0).shuffle(shuffled)
        assert five_number_summary(shuffled) == s


class TestPlotData:
    def test_response_time_values_are_measurement_successes(self, loaded_run):
        values = plot_values(loaded_run, "response_time")
        assert len(values) == 1260 and set(values) == {25.0}

    def test_power_values_derive_from_counters(self, loaded_run):
        values = plot_values(loaded_run, "power")
        assert values and all(v == pytest.approx(10.0) for v in values)

    def test_unknown_kind_rejected(self, loaded_run):
        with pytest.raises(ValueError):
            plot_values(loaded_run, "disk_io")
        with pytest.raises(ValueError):
            export_plot_data({}, "disk_io")

    def test_export_groups_by_version_with_summaries(self, loaded_run):
        doc = json.loads(export_plot_data({"v1": [loaded_run], "v2": []}, "cpu_utilization"))
        assert doc["kind"] == "cpu_utilization"
        v1 = doc["versions"]["v1"]
        assert v1["summary"]["median"] == pytest.approx(33.3)
        assert doc["versions"]["v2"] == {"values": [], "summary": None}
