import json
import os
import subprocess
import sys

import pytest

SCENARIO_TEXT = """\
[scenario]
think_time_ms = 100
credentials = alice:pw1 bob:pw2

[operation:login]
method = POST
path = /login
body = {"user": "{user}", "pass": "{pass}"}
"""

PLAN_TEXT = """\
[plan]
plan_id = cli-plan
users = 1
duration_ms = 1500
warmup_ms = 300
repetitions = 1
sampling_interval_ms = 100
cooldown_ms = 0

[scenario]
path = scenario.ini
"""


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("CI_COMMIT_SHA", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "wattbench", *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )


def _write_profile(dirpath, cpu_watts):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "cpu_package.csv").write_text(f"t_ms,watts\n0,{cpu_watts}\n")
    (dirpath / "dram.csv").write_text("t_ms,watts\n0,1.0\n")
    return dirpath


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared store populated through the real CLI: three commits on one
    plan (30 W baseline, 36 W regressed, 30 W equivalent) plus one commit
    on a different plan."""
    root = tmp_path_factory.mktemp("cli")
    (root / "scenario.ini").write_text(SCENARIO_TEXT)
    (root / "plan.ini").write_text(PLAN_TEXT)
    (root / "other-plan.ini").write_text(PLAN_TEXT.replace("users = 1", "users = 2"))
    store = root / "store"
    for commit, watts, plan in (
        ("base", 30.0, "plan.ini"),
        ("regressed", 36.0, "plan.ini"),
        ("equivalent", 30.0, "plan.ini"),
        ("otherplan", 30.0, "other-plan.ini"),
    ):
        profile = _write_profile(root / f"profile-{commit}", watts)
        result = run_cli(
            "run", str(root / plan), "--sut", "mock:v1", "--commit", commit,
            "--store", str(store), "--simulate", str(profile),
        )
        assert result.returncode == 0, result.stderr
    return root


class TestRunCommand:
    def test_successful_run_prints_run_ids_and_exits_zero(self, workspace):
        result = run_cli(
            "run", str(workspace / "plan.ini"), "--sut", "mock:v1",
            "--commit", "extra", "--store", str(workspace / "store"),
            "--simulate", str(workspace / "profile-base"),
        )
        assert result.returncode == 0
        assert result.stdout.strip().startswith("extra-r0-")

    def test_commit_from_ci_environment(self, workspace, tmp_path):
        result = run_cli(
            "run", str(workspace / "plan.ini"), "--sut", "mock:v1",
            "--store", str(tmp_path / "store"),
            "--simulate", str(workspace / "profile-base"),
            env_extra={"CI_COMMIT_SHA": "abc123"},
        )
        assert result.returncode == 0
        assert result.stdout.strip().startswith("abc123-r0-")

    def test_no_commit_id_is_an_error(self, workspace, tmp_path):
        result = run_cli(
            "run", str(workspace / "plan.ini"), "--sut", "mock:v1",
            "--store", str(tmp_path / "store"),
        )
        assert result.returncode == 2
        assert "commit" in result.stderr

    def test_missing_plan_file_exits_two(self, tmp_path):
        result = run_cli(
            "run", str(tmp_path / "nope.ini"), "--sut", "mock:v1",
            "--commit", "c", "--store", str(tmp_path / "store"),
        )
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_rapl_counter_range_is_stored_and_reported(self, tmp_path):
        # a counter above 2**32 is valid when the hardware's range is larger
        pkg = tmp_path / "powercap" / "intel-rapl:0"
        pkg.mkdir(parents=True)
        (pkg / "name").write_text("package-0\n")
        (pkg / "energy_uj").write_text("100000000000\n")
        (pkg / "max_energy_range_uj").write_text("262143328850\n")
        (tmp_path / "scenario.ini").write_text(SCENARIO_TEXT)
        (tmp_path / "plan.ini").write_text(
            PLAN_TEXT + "\n[monitoring]\npower_backend = rapl\n"
            f"root = {tmp_path / 'powercap'}\ndomains = cpu_package\n"
        )
        store = tmp_path / "store"
        result = run_cli("run", str(tmp_path / "plan.ini"), "--sut", "mock:v1",
                         "--commit", "rapl", "--store", str(store))
        assert result.returncode == 0, result.stderr
        (meta,) = store.glob("rapl/*/*/meta.json")
        assert json.loads(meta.read_text())["domains"] == [
            {"kind": "cpu_package", "max_range_uj": 262143328850}
        ]
        report = run_cli("report", "rapl", "--store", str(store))
        assert report.returncode == 0, report.stderr

    def test_agent_refusal_keeps_its_detail(self, tmp_path):
        # the default domains ask for DRAM, which this powercap tree lacks
        pkg = tmp_path / "powercap" / "intel-rapl:0"
        pkg.mkdir(parents=True)
        (pkg / "name").write_text("package-0\n")
        (pkg / "energy_uj").write_text("1000\n")
        (tmp_path / "scenario.ini").write_text(SCENARIO_TEXT)
        (tmp_path / "plan.ini").write_text(
            PLAN_TEXT + f"\n[monitoring]\npower_backend = rapl\nroot = {tmp_path / 'powercap'}\n"
        )
        store = tmp_path / "store"
        result = run_cli("run", str(tmp_path / "plan.ini"), "--sut", "mock:v1",
                         "--commit", "nodram", "--store", str(store))
        reason = "agent_error: probe_unavailable: domain dram not available"
        assert result.returncode == 2
        assert reason in result.stderr
        (meta,) = store.glob("nodram/*/*/meta.json")
        assert json.loads(meta.read_text())["invalid_reason"] == reason

    def test_unknown_mock_profile_exits_two_before_deploying(self, workspace, tmp_path):
        result = run_cli(
            "run", str(workspace / "plan.ini"), "--sut", "mock:custom",
            "--commit", "c", "--store", str(tmp_path / "store"),
        )
        assert result.returncode == 2
        assert "unknown mock SUT profile" in result.stderr
        assert not (tmp_path / "store").exists()

    def test_unknown_sut_adapter_exits_two(self, workspace, tmp_path):
        result = run_cli(
            "run", str(workspace / "plan.ini"), "--sut", "vm:image",
            "--commit", "c", "--store", str(tmp_path / "store"),
        )
        assert result.returncode == 2


class TestCompareCommand:
    def _compare(self, workspace, baseline, candidate, *extra):
        return run_cli(
            "compare", baseline, candidate, "--store", str(workspace / "store"),
            "--metrics", "cpu_energy_j", *extra,
        )

    def test_regression_detected_exits_one(self, workspace):
        result = self._compare(workspace, "base", "regressed")
        assert result.returncode == 1
        assert "regression" in result.stdout

    def test_no_regression_exits_zero(self, workspace):
        result = self._compare(workspace, "base", "equivalent")
        assert result.returncode == 0
        assert "unchanged" in result.stdout

    def test_improvement_exits_zero(self, workspace):
        result = self._compare(workspace, "regressed", "base")
        assert result.returncode == 0
        assert "improvement" in result.stdout

    def test_different_plans_exit_three(self, workspace):
        result = self._compare(workspace, "base", "otherplan")
        assert result.returncode == 3

    def test_json_format_is_machine_readable(self, workspace):
        result = self._compare(workspace, "base", "regressed", "--format", "json")
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["overall_verdict"] == "regression"
        assert doc["per_metric"]["cpu_energy_j"]["delta_percent"] == pytest.approx(20.0, abs=3.0)

    def test_threshold_is_tunable(self, workspace):
        result = self._compare(workspace, "base", "regressed", "--threshold", "50")
        assert result.returncode == 0

    def test_unknown_commit_exits_two(self, workspace):
        result = self._compare(workspace, "base", "ghost")
        assert result.returncode == 2

    def test_unknown_metric_exits_two(self, workspace):
        result = run_cli(
            "compare", "base", "regressed", "--store", str(workspace / "store"),
            "--metrics", "disk_io",
        )
        assert result.returncode == 2


@pytest.fixture(scope="module")
def gate_store(tmp_path_factory):
    """Short runs at 30 W and 36 W, at three and at four repetitions."""
    root = tmp_path_factory.mktemp("gate")
    (root / "scenario.ini").write_text(SCENARIO_TEXT)
    store = root / "store"
    for reps in (3, 4):
        plan = root / f"plan{reps}.ini"
        plan.write_text(
            PLAN_TEXT.replace("repetitions = 1", f"repetitions = {reps}")
            .replace("duration_ms = 1500", "duration_ms = 600")
            .replace("warmup_ms = 300", "warmup_ms = 200")
        )
        for side, watts in (("base", 30.0), ("hot", 36.0)):
            result = run_cli(
                "run", str(plan), "--sut", "mock:v1", "--commit", f"{side}{reps}",
                "--store", str(store),
                "--simulate", str(_write_profile(root / f"profile-{watts}", watts)),
            )
            assert result.returncode == 0, result.stderr
    return store


class TestGateAtRecommendedRepetitions:
    """The exact rank-sum test's smallest two-sided p is 2 / C(2n, n)."""

    def test_three_repetitions_cannot_reach_alpha(self, gate_store):
        result = run_cli("compare", "base3", "hot3", "--store", str(gate_store),
                         "--metrics", "cpu_energy_j", "--format", "json")
        assert result.returncode == 0, result.stderr
        m = json.loads(result.stdout)["per_metric"]["cpu_energy_j"]
        assert m["p_value"] == pytest.approx(0.1)
        assert m["verdict"] == "unchanged"

    def test_four_repetitions_gate_fires_without_scipy(self, gate_store):
        code = (
            "import sys\n"
            "from wattbench.cli import main\n"
            "try:\n"
            "    main()\n"
            "finally:\n"
            "    print('scipy' in sys.modules, file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "compare", "base4", "hot4",
             "--store", str(gate_store), "--metrics", "cpu_energy_j", "--format", "json"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        m = json.loads(result.stdout)["per_metric"]["cpu_energy_j"]
        assert m["p_value"] == pytest.approx(2 / 70)
        assert m["verdict"] == "regression"
        assert result.stderr.splitlines()[-1] == "False"


class TestReportCommand:
    def test_markdown_table_on_stdout(self, workspace):
        result = run_cli("report", "base", "regressed", "--store", str(workspace / "store"))
        assert result.returncode == 0
        assert "| Run | CPU (J) |" in result.stdout
        assert "| base |" in result.stdout and "| regressed |" in result.stdout

    def test_out_file(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("report", "base", "--store", str(workspace / "store"),
                         "--format", "json", "--out", str(out))
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1

    def test_unknown_commit_exits_two(self, workspace):
        assert run_cli("report", "ghost", "--store", str(workspace / "store")).returncode == 2


class TestPlotDataCommand:
    def test_power_distributions_per_commit(self, workspace):
        result = run_cli("plot-data", "base", "regressed", "--kind", "power",
                         "--store", str(workspace / "store"))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc["versions"]) == {"base", "regressed"}
        assert doc["versions"]["base"]["summary"]["median"] == pytest.approx(30.0, abs=1.0)
        assert doc["versions"]["regressed"]["summary"]["median"] == pytest.approx(36.0, abs=1.0)


class TestListCommand:
    def test_lists_all_runs_with_status(self, workspace):
        result = run_cli("list", "--store", str(workspace / "store"))
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) >= 4
        assert all("status=valid" in line for line in lines)

    def test_filter_by_commit(self, workspace):
        result = run_cli("list", "--commit", "base", "--store", str(workspace / "store"))
        assert all("commit=base" in line for line in result.stdout.strip().splitlines())


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        assert run_cli("explode").returncode == 2

    def test_missing_required_option_exits_two(self, tmp_path):
        assert run_cli("run", str(tmp_path / "p.ini")).returncode == 2
