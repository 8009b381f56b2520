import io
import time

import pytest

from wattbench.errors import ConfigError, TargetDown
from wattbench.loadgen import (
    REQUESTS_CSV_HEADER,
    Operation,
    RequestRecord,
    Scenario,
    parse_scenario,
    read_records_csv,
    records_csv_bytes,
    run_scenario,
    throughput_series,
    write_records_csv,
)
from wattbench.metrics import standard_phase_marks
from wattbench.mocksut import serve

SCENARIO_TEXT = """\
[scenario]
think_time_ms = 50
probe_path = /health
credentials = alice:pw1 bob:pw2 carol:pw3

[operation:login]
method = POST
path = /login
body = {"user": "{user}", "pass": "{pass}"}
expected_status = 200
"""


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_TEXT)
    return parse_scenario(path.read_text())


class TestScenarioParsing:
    def test_fields(self, scenario):
        assert scenario.think_time_ms == 50
        assert scenario.probe_path == "/health"
        assert scenario.credentials_pool == [
            {"user": "alice", "pass": "pw1"},
            {"user": "bob", "pass": "pw2"},
            {"user": "carol", "pass": "pw3"},
        ]
        (op,) = scenario.operations
        assert (op.name, op.method, op.path, op.expected_status) == (
            "login", "POST", "/login", 200,
        )

    def test_operation_without_path_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("[scenario]\n[operation:x]\nmethod = GET\n")

    def test_no_operations_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("[scenario]\nthink_time_ms = 10\n")

    def test_text_parses_like_the_file(self, scenario):
        assert parse_scenario(SCENARIO_TEXT) == scenario

    def test_negative_think_time_rejected(self):
        with pytest.raises(ConfigError):
            Scenario([Operation("x", "GET", "/")], think_time_ms=-1)


@pytest.fixture(scope="module")
def sut():
    service = serve("v1")
    yield service
    service.stop()


class TestRunScenario:
    def test_closed_loop_run_collects_tagged_records(self, scenario, sut):
        result = run_scenario(scenario, users=3, duration_ms=1500, warmup_ms=500,
                              target=sut.base_url)
        assert result.records, "expected at least one record"
        assert all(r.success for r in result.records)
        assert all(0 <= r.start_ms < 1500 for r in result.records)
        warm_mark, meas_mark = standard_phase_marks(500, 1500)
        warm = [r for r in result.records if warm_mark.contains(r.start_ms)]
        meas = [r for r in result.records if meas_mark.contains(r.start_ms)]
        assert len(warm) + len(meas) == len(result.records)
        assert all(r.start_ms < 500 for r in warm)
        assert all(r.start_ms >= 500 for r in meas)

    def test_closed_loop_bound_one_outstanding_request_per_user(self, scenario, sut):
        users, duration = 4, 1200
        result = run_scenario(scenario, users, duration, 100, sut.base_url)
        # each user issues at most one request per think-time slot, plus the
        # initial request fired at t=0 before any think pause
        bound = users * (duration / scenario.think_time_ms + 1)
        assert len(result.records) <= bound
        per_user = {}
        for r in result.records:
            per_user.setdefault(r.user_index, []).append(r)
        for records in per_user.values():
            for prev, curr in zip(records, records[1:]):
                # closed loop: next request starts after the previous returned
                assert curr.start_ms >= prev.start_ms

    def test_unexpected_status_is_failure_record(self, sut):
        scenario = parse_scenario(
            "[scenario]\nthink_time_ms = 100\n"
            "[operation:broken]\nmethod = POST\npath = /login\nbody = garbage\n"
        )
        result = run_scenario(scenario, 1, 600, 100, sut.base_url)
        assert result.records
        assert all(r.outcome == "failure:status_400" for r in result.records)

    def test_unreachable_target_rejected_before_starting(self, scenario):
        with pytest.raises(TargetDown):
            run_scenario(scenario, 1, 500, 100, "http://127.0.0.1:1")

    def test_think_time_does_not_run_past_the_deadline(self, scenario, sut):
        started = time.monotonic()
        run_scenario(scenario, 2, 1000, 0, sut.base_url, think_time_ms=100)
        assert (time.monotonic() - started) * 1e3 < 1000 + 60

    def test_bad_parameters_rejected(self, scenario, sut):
        with pytest.raises(ValueError):
            run_scenario(scenario, 0, 500, 100, sut.base_url)
        with pytest.raises(ValueError):
            run_scenario(scenario, 1, 500, 500, sut.base_url)


class TestThroughputSeries:
    def test_counts_successes_in_measurement_buckets(self):
        marks = standard_phase_marks(1000, 4000)
        records = (
            [RequestRecord("login", 0, 500, 10.0, "success")]  # warmup: excluded
            + [RequestRecord("login", 0, 1000 + i * 100, 10.0, "success") for i in range(10)]
            + [RequestRecord("login", 0, 2500, 10.0, "failure:status_500")]  # failure: excluded
            + [RequestRecord("login", 0, 3500, 10.0, "success")]
        )
        series = throughput_series(records, 1000, marks)
        assert [s.timestamp_ms for s in series.samples] == [2000, 3000, 4000]
        assert [s.value for s in series.samples] == [10.0, 0.0, 1.0]
        assert all(s.scope_id == "all" for s in series.samples)

    def test_empty_records_give_empty_series(self):
        assert len(throughput_series([], 1000, standard_phase_marks(0, 1000))) == 0

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            throughput_series([], 0, standard_phase_marks(0, 1000))


class TestRecordsCsv:
    RECORD = RequestRecord("login", 3, 1250, 27.5, "success")

    def test_bit_exact_row(self):
        buf = io.StringIO()
        write_records_csv([self.RECORD], buf)
        assert buf.getvalue() == REQUESTS_CSV_HEADER + "\n" + "1250,login,3,27.500000,success\n"

    def test_roundtrip(self):
        records = [
            self.RECORD,
            RequestRecord("login", 0, 2000, 31.25, "failure:status_500"),
            RequestRecord("health", 1, 2500, 0.125, "failure:transport"),
        ]
        loaded = read_records_csv(io.StringIO(records_csv_bytes(records).decode("ascii")))
        assert loaded == records

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_records_csv(io.StringIO("wrong\n"))
