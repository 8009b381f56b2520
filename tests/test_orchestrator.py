import pytest

from wattbench import loadgen
from wattbench.agent import AgentClient, AgentServer
from wattbench.analytics import aggregate_run
from wattbench.errors import ConfigError, DeployError, PlanFailed, ProbeUnavailable
from wattbench.orchestrator import (
    MockDeployer,
    Orchestrator,
    SutRef,
    load_test_plan,
    make_deployer,
    parse_sut_spec,
)
from wattbench.power import CpuModelPowerBackend, DomainKind
from wattbench.store import RunStore

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
plan_id = smoke
users = 2
duration_ms = 2000
warmup_ms = 500
repetitions = 1
sampling_interval_ms = 100
cooldown_ms = 0

[scenario]
path = scenario.ini

[monitoring]
power_backend = cpu_model
domains = cpu_package,dram
"""


@pytest.fixture
def plan_dir(tmp_path):
    (tmp_path / "scenario.ini").write_text(SCENARIO_TEXT)
    (tmp_path / "plan.ini").write_text(PLAN_TEXT)
    return tmp_path


@pytest.fixture
def plan(plan_dir):
    return load_test_plan(str(plan_dir / "plan.ini"))


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


class TestPlanLoading:
    def test_fields_resolved(self, plan):
        assert plan.plan_id == "smoke"
        assert (plan.users, plan.duration_ms, plan.warmup_ms) == (2, 2000, 500)
        assert plan.think_time_ms is None  # defers to the scenario file
        assert plan.repetitions == 1
        assert plan.monitored_domains == ("cpu_package", "dram")
        assert plan.container_selector == "all"
        assert "[operation:login]" in plan.scenario_text

    def test_missing_mandatory_key_named_in_error(self, plan_dir):
        (plan_dir / "bad.ini").write_text("[plan]\nduration_ms = 1000\n"
                                          "[scenario]\npath = scenario.ini\n")
        with pytest.raises(ConfigError, match="users"):
            load_test_plan(str(plan_dir / "bad.ini"))

    def test_missing_plan_file_rejected(self):
        with pytest.raises(ConfigError):
            load_test_plan("/nonexistent/plan.ini")

    def test_missing_scenario_file_rejected(self, plan_dir):
        (plan_dir / "orphan.ini").write_text("[plan]\nusers = 1\nduration_ms = 1000\n"
                                             "[scenario]\npath = gone.ini\n")
        with pytest.raises(ConfigError):
            load_test_plan(str(plan_dir / "orphan.ini"))

    @pytest.mark.parametrize("override", [
        "users = 0",
        "warmup_ms = 2000",
        "repetitions = 0",
        "sampling_interval_ms = 50",
    ])
    def test_invariant_violations_rejected(self, plan_dir, override):
        key = override.split(" = ")[0]
        lines = [
            line if not line.startswith(key + " ") else override
            for line in PLAN_TEXT.splitlines()
        ]
        if not any(line.startswith(key) for line in lines):
            lines.insert(1, override)
        (plan_dir / "broken.ini").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            load_test_plan(str(plan_dir / "broken.ini"))


class TestPlanHash:
    def test_stable_for_identical_plans(self, plan_dir):
        a = load_test_plan(str(plan_dir / "plan.ini"))
        b = load_test_plan(str(plan_dir / "plan.ini"))
        assert a.plan_hash == b.plan_hash

    def test_changes_with_load_parameters(self, plan_dir, plan):
        (plan_dir / "more-users.ini").write_text(PLAN_TEXT.replace("users = 2", "users = 3"))
        assert load_test_plan(str(plan_dir / "more-users.ini")).plan_hash != plan.plan_hash

    def test_changes_with_scenario_content(self, plan_dir, plan):
        (plan_dir / "scenario.ini").write_text(
            SCENARIO_TEXT.replace("think_time_ms = 100", "think_time_ms = 200")
        )
        assert load_test_plan(str(plan_dir / "plan.ini")).plan_hash != plan.plan_hash

    def test_indifferent_to_backend_monitoring_details(self, plan_dir, plan):
        (plan_dir / "other-backend.ini").write_text(
            PLAN_TEXT.replace("power_backend = cpu_model", "power_backend = rapl")
        )
        assert load_test_plan(str(plan_dir / "other-backend.ini")).plan_hash == plan.plan_hash


class TestSutSpec:
    def test_mock_spec(self):
        ref = parse_sut_spec("mock:v3", "abc123")
        assert ref.commit_id == "abc123"
        assert ref.deploy_spec == {"adapter": "mock", "profile": "v3"}

    def test_docker_spec(self):
        ref = parse_sut_spec("docker:registry/app:sha-abc", "abc123")
        assert ref.image_refs == ("registry/app:sha-abc",)
        assert ref.deploy_spec["adapter"] == "docker"

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            parse_sut_spec("mock:v9", "c")
        with pytest.raises(ConfigError, match="unknown mock SUT profile"):
            parse_sut_spec("mock:custom", "c")
        with pytest.raises(ConfigError):
            parse_sut_spec("docker:", "c")
        with pytest.raises(ConfigError):
            parse_sut_spec("podmanish:x", "c")

    def test_sut_ref_invariants(self):
        with pytest.raises(ValueError):
            SutRef("", ("img",))
        with pytest.raises(ValueError):
            SutRef("c1", ())


class TestMockDeployer:
    def test_deploy_probe_teardown(self):
        deployer = MockDeployer()
        deployment = deployer.deploy(parse_sut_spec("mock:v1", "c1"))
        try:
            assert deployment.base_url.startswith("http://127.0.0.1:")
            (cid,) = deployment.container_ids
            assert cid.startswith("sut-v1-")
            memory, cpu = deployment.live_registry.read(cid)
            assert memory > 0
        finally:
            deployer.teardown_current()

    def test_factory_dispatch(self, plan):
        assert isinstance(make_deployer(plan, parse_sut_spec("mock:v1", "c")), MockDeployer)


class TestExecuteRun:
    def test_end_to_end_valid_run(self, plan, store):
        orch = Orchestrator(store)
        record = orch.execute_run(plan, parse_sut_spec("mock:v1", "commit-a"))
        assert record.status == "valid"
        assert record.plan_hash == plan.plan_hash
        assert record.wall_clock_anchor
        loaded = store.load_run(record.run_id)
        # the run data triple: power counters, container/host samples, requests
        assert set(loaded.counters) == {DomainKind.CPU_PACKAGE, DomainKind.DRAM}
        assert len(loaded.counters[DomainKind.CPU_PACKAGE]) >= 2
        assert any(s.metric.name == "memory_usage" for s in loaded.samples)
        assert loaded.requests
        summary = aggregate_run(loaded)
        assert summary.cpu_energy_j > 0
        assert summary.requests_total > 0

    def test_deploy_failure_persisted_as_invalid(self, plan, store):
        class FailingDeployer:
            def deploy(self, sut):
                raise DeployError("image not found")

        orch = Orchestrator(store, deployer=FailingDeployer())
        record = orch.execute_run(plan, parse_sut_spec("mock:v1", "commit-b"))
        assert record.status == "invalid"
        assert record.invalid_reason.startswith("deploy_error")
        loaded = store.load_run(record.run_id)
        assert loaded.record.invalid_reason.startswith("deploy_error")

    def test_agent_unreachable_is_agent_lost(self, plan, store):
        orch = Orchestrator(store, agent_address=("127.0.0.1", 1))
        record = orch.execute_run(plan, parse_sut_spec("mock:v1", "commit-c"))
        assert record.status == "invalid"
        assert record.invalid_reason.startswith("agent_lost")

    def test_probe_failure_mid_run_is_invalid_with_the_collector_error(
        self, plan, store, monkeypatch
    ):
        read_uj = CpuModelPowerBackend.read_uj
        calls = {"n": 0}

        def failing(self, domain):
            calls["n"] += 1
            if calls["n"] > 6:
                raise ProbeUnavailable("energy_uj vanished")
            return read_uj(self, domain)

        monkeypatch.setattr(CpuModelPowerBackend, "read_uj", failing)
        record = Orchestrator(store).execute_run(plan, parse_sut_spec("mock:v1", "commit-i"))
        assert record.status == "invalid"
        assert record.invalid_reason == "agent_degraded: ProbeUnavailable: energy_uj vanished"
        assert store.load_run(record.run_id).record.invalid_reason == record.invalid_reason

    def test_simulated_power_profile_overrides_plan_backend(self, plan, store, tmp_path):
        profile = tmp_path / "profile"
        profile.mkdir()
        (profile / "cpu_package.csv").write_text("t_ms,watts\n0,30.0\n")
        (profile / "dram.csv").write_text("t_ms,watts\n0,1.0\n")
        orch = Orchestrator(store, simulate_profile_dir=str(profile))
        record = orch.execute_run(plan, parse_sut_spec("mock:v1", "commit-d"))
        assert record.status == "valid"
        summary = aggregate_run(store.load_run(record.run_id))
        # 30 W over the 1.5 s measurement phase
        assert summary.cpu_energy_j == pytest.approx(30.0 * 1.5, rel=0.15)


class TestRemoteAgentLeftIdle:
    @pytest.fixture
    def agent(self, tmp_path):
        server = AgentServer(spool_dir=str(tmp_path / "spool")).start()
        yield server
        server.stop()

    def test_scenario_without_operations_fails_before_start(self, plan_dir, store, agent):
        (plan_dir / "scenario.ini").write_text("[scenario]\nthink_time_ms = 100\n")
        plan = load_test_plan(str(plan_dir / "plan.ini"))
        orch = Orchestrator(store, agent_address=agent.address)
        with pytest.raises(ConfigError):
            orch.execute_run(plan, parse_sut_spec("mock:v1", "commit-g"))
        assert AgentClient(*agent.address).health()["detail"] == "idle"

    def test_load_generator_crash_stops_the_session(self, plan, store, agent, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("load generator crashed")

        monkeypatch.setattr(loadgen, "run_scenario", crash)
        orch = Orchestrator(store, agent_address=agent.address)
        with pytest.raises(RuntimeError):
            orch.execute_run(plan, parse_sut_spec("mock:v1", "commit-h"))
        assert AgentClient(*agent.address).health()["detail"] == "idle"


class TestExecutePlan:
    def _fast_plan(self, plan_dir, repetitions):
        text = PLAN_TEXT.replace("repetitions = 1", f"repetitions = {repetitions}")
        text = text.replace("duration_ms = 2000", "duration_ms = 1200")
        (plan_dir / "reps.ini").write_text(text)
        return load_test_plan(str(plan_dir / "reps.ini"))

    def test_repetitions_share_plan_hash(self, plan_dir, store):
        plan = self._fast_plan(plan_dir, 2)
        orch = Orchestrator(store)
        records = orch.execute_plan(plan, parse_sut_spec("mock:v1", "commit-e"))
        assert len(records) == 2
        assert [r.repetition_index for r in records] == [0, 1]
        assert len({r.plan_hash for r in records}) == 1
        assert all(r.status == "valid" for r in records)
        assert len({r.run_id for r in records}) == 2

    def test_all_invalid_raises_plan_failed(self, plan_dir, store):
        class FailingDeployer:
            def deploy(self, sut):
                raise DeployError("nope")

        plan = self._fast_plan(plan_dir, 2)
        orch = Orchestrator(store, deployer=FailingDeployer())
        with pytest.raises(PlanFailed):
            orch.execute_plan(plan, parse_sut_spec("mock:v1", "commit-f"))
        # both failed repetitions remain audit-visible in the store
        assert len(store.list_runs(commit_id="commit-f")) == 2
