import io

import pytest

from wattbench.errors import UnknownMetricError
from wattbench.metrics import (
    BUILTIN_DESCRIPTORS,
    CSV_HEADER,
    Origin,
    Phase,
    PhaseMark,
    Sample,
    SampleSeries,
    Scope,
    Temporal,
    Unit,
    classify,
    read_samples_csv,
    write_samples_csv,
)

EXPECTED_TABLE = {
    "memory_usage": (Unit.BYTE, {Scope.CONTAINER}, Origin.DIRECT, Temporal.POINT),
    "cpu_power": (Unit.WATT, {Scope.CONTAINER}, Origin.DIRECT, Temporal.POINT),
    "cpu_utilization": (Unit.PERCENT, {Scope.HOST, Scope.CONTAINER}, Origin.DIRECT, Temporal.POINT),
    "dram_energy": (Unit.MICROJOULE, {Scope.HOST}, Origin.DERIVED, Temporal.CUMULATIVE),
    "response_time": (Unit.MILLISECOND, {Scope.ENDPOINT}, Origin.DIRECT, Temporal.POINT),
    "failures": (Unit.COUNT, {Scope.ENDPOINT}, Origin.DIRECT, Temporal.POINT),
}


class TestClassificationTable:
    def test_table_is_closed_with_exactly_six_builtins(self):
        assert set(BUILTIN_DESCRIPTORS) == set(EXPECTED_TABLE)

    @pytest.mark.parametrize("name", sorted(EXPECTED_TABLE))
    def test_builtin_matches_expected_row(self, name):
        unit, scopes, origin, temporal = EXPECTED_TABLE[name]
        d = BUILTIN_DESCRIPTORS[name]
        assert (d.unit, set(d.scopes), d.origin, d.temporal) == (unit, scopes, origin, temporal)

    def test_only_cpu_utilization_has_two_scopes(self):
        for name, d in BUILTIN_DESCRIPTORS.items():
            expected = 2 if name == "cpu_utilization" else 1
            assert len(d.scopes) == expected, name

    def test_classify_returns_registered_descriptor(self):
        d = classify("dram_energy")
        assert (d.unit, set(d.scopes), d.origin, d.temporal) == (
            Unit.MICROJOULE, {Scope.HOST}, Origin.DERIVED, Temporal.CUMULATIVE,
        )
        d = classify("response_time")
        assert (d.unit, set(d.scopes), d.origin, d.temporal) == (
            Unit.MILLISECOND, {Scope.ENDPOINT}, Origin.DIRECT, Temporal.POINT,
        )

    def test_classify_unknown_name_rejected(self):
        with pytest.raises(UnknownMetricError):
            classify("nonexistent")


class TestSeriesInvariants:
    def test_non_increasing_timestamps_rejected(self):
        desc = classify("response_time")
        with pytest.raises(ValueError):
            SampleSeries(desc, "x", (Sample(5, desc, "x", 1.0), Sample(5, desc, "x", 2.0)))

    def test_overlapping_phase_marks_rejected(self):
        desc = classify("response_time")
        with pytest.raises(ValueError):
            SampleSeries(
                desc, "x", (),
                (PhaseMark(Phase.WARMUP, 0, 100), PhaseMark(Phase.MEASUREMENT, 50, 200)),
            )

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            Sample(0, classify("response_time"), "x", float("nan"))


class TestSampleCsv:
    def test_bit_exact_row_format(self):
        desc = classify("cpu_utilization")
        buf = io.StringIO()
        write_samples_csv([Sample(1000, desc, "host", 33.3)], buf)
        assert buf.getvalue() == CSV_HEADER + "\n" + "1000,cpu_utilization,host,33.300000\n"

    def test_roundtrip(self):
        desc = classify("memory_usage")
        samples = [Sample(t, desc, "c1", float(t * 7)) for t in range(0, 5000, 500)]
        buf = io.StringIO()
        write_samples_csv(samples, buf)
        loaded = read_samples_csv(io.StringIO(buf.getvalue()))
        assert [(s.timestamp_ms, s.metric.name, s.scope_id, s.value) for s in loaded] == [
            (s.timestamp_ms, s.metric.name, s.scope_id, s.value) for s in samples
        ]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_samples_csv(io.StringIO("nope\n"))
