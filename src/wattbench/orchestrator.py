"""Per-commit experiment lifecycle: load the test plan, deploy the SUT,
coordinate the agent and the load generator, persist results, repeat.

Runs are strictly sequential on a testbed (power counters are host-global);
a cool-down separates repetitions. Invalid runs are persisted with their
reason for auditability and excluded from every aggregate downstream.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import time
import uuid
from dataclasses import dataclass, field, asdict
from pathlib import Path

import requests

from . import agent as amod
from . import loadgen as lmod
from . import mocksut
from .containers import LiveRegistry
from .errors import AgentError, ConfigError, DeployError, PlanFailed, TargetDown, WattbenchError
from .store import RunRecord, RunStore

DEFAULT_COOLDOWN_MS = 5000


@dataclass(frozen=True)
class TestPlan:
    plan_id: str
    users: int
    duration_ms: int
    warmup_ms: int
    think_time_ms: float | None
    repetitions: int
    sampling_interval_ms: int
    cooldown_ms: int
    scenario_text: str
    monitored_domains: tuple[str, ...]
    container_selector: str
    scenario: lmod.Scenario = field(hash=False, compare=False)
    monitoring: dict = field(default_factory=dict, hash=False, compare=False)
    deploy: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def plan_hash(self) -> str:
        canonical = json.dumps(
            {
                "users": self.users,
                "duration_ms": self.duration_ms,
                "warmup_ms": self.warmup_ms,
                "think_time_ms": self.think_time_ms,
                "repetitions": self.repetitions,
                "sampling_interval_ms": self.sampling_interval_ms,
                "monitored_domains": sorted(self.monitored_domains),
                "container_selector": self.container_selector,
                "scenario": self.scenario_text,
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SutRef:
    commit_id: str
    image_refs: tuple[str, ...]
    deploy_spec: dict = field(hash=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.commit_id:
            raise ValueError("commit_id must be non-empty")
        if not self.image_refs:
            raise ValueError("SutRef needs at least one image")


def parse_sut_spec(spec: str, commit_id: str) -> SutRef:
    """Parse CLI SUT specs: ``mock:<profile>`` or ``docker:<image>``."""
    adapter, _, arg = spec.partition(":")
    if adapter == "mock":
        profile = arg or "v1"
        if profile not in mocksut.PROFILES:
            raise ConfigError(f"unknown mock SUT profile: {profile!r}")
        return SutRef(commit_id, (f"mock/{profile}",), {"adapter": "mock", "profile": profile})
    if adapter == "docker":
        if not arg:
            raise ConfigError("docker SUT spec needs an image reference")
        return SutRef(commit_id, (arg,), {"adapter": "docker", "image": arg})
    raise ConfigError(f"unknown SUT adapter: {adapter!r}")


# ---------------------------------------------------------------------------
# Test plan loading


def _require(section, key: str, plan_path: str):
    if key not in section:
        raise ConfigError(f"{plan_path}: missing mandatory key [{section.name}] {key}")
    return section[key]


def load_test_plan(path: str) -> TestPlan:
    """Parse the configuration.ini-style plan file and resolve defaults."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"plan file not found: {path}")
    if "plan" not in parser:
        raise ConfigError(f"{path}: missing [plan] section")
    plan = parser["plan"]

    users = int(_require(plan, "users", path))
    duration_ms = int(_require(plan, "duration_ms", path))
    warmup_ms = plan.getint("warmup_ms", 0)
    # None defers to the scenario's own think time
    think_time_ms = plan.getfloat("think_time_ms", fallback=None)
    repetitions = plan.getint("repetitions", 1)
    sampling_interval_ms = plan.getint("sampling_interval_ms", 1000)
    cooldown_ms = plan.getint("cooldown_ms", DEFAULT_COOLDOWN_MS)

    if users < 1:
        raise ConfigError(f"{path}: users must be >= 1")
    if not 0 <= warmup_ms < duration_ms:
        raise ConfigError(f"{path}: warmup_ms must satisfy 0 <= warmup_ms < duration_ms")
    if repetitions < 1:
        raise ConfigError(f"{path}: repetitions must be >= 1")
    if sampling_interval_ms < 100:
        raise ConfigError(f"{path}: sampling_interval_ms must be >= 100")

    if "scenario" not in parser:
        raise ConfigError(f"{path}: missing [scenario] section")
    scenario_ref = _require(parser["scenario"], "path", path)
    scenario_path = Path(path).parent / scenario_ref
    try:
        scenario_text = scenario_path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: scenario file unreadable: {exc}") from exc
    try:
        scenario = lmod.parse_scenario(scenario_text)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"{scenario_path}: {exc}") from exc

    monitoring = dict(parser["monitoring"]) if "monitoring" in parser else {}
    domains = tuple(
        d.strip()
        for d in monitoring.get("domains", "cpu_package,dram").split(",")
        if d.strip()
    )
    container_selector = monitoring.get("container_selector", "all")
    deploy = dict(parser["deploy"]) if "deploy" in parser else {}

    return TestPlan(
        plan_id=plan.get("plan_id", Path(path).stem),
        users=users,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        think_time_ms=think_time_ms,
        repetitions=repetitions,
        sampling_interval_ms=sampling_interval_ms,
        cooldown_ms=cooldown_ms,
        scenario_text=scenario_text,
        monitored_domains=domains,
        container_selector=container_selector,
        scenario=scenario,
        monitoring=monitoring,
        deploy=deploy,
    )


# ---------------------------------------------------------------------------
# Deployment adapters


@dataclass
class Deployment:
    base_url: str
    container_ids: list[str]
    live_registry: LiveRegistry | None = None
    _teardown: callable = None

    def teardown(self) -> None:
        if self._teardown is not None:
            self._teardown()
            self._teardown = None


class MockDeployer:
    """Runs the bundled mock SUT in-process and registers it with a live
    simulated container registry."""

    def __init__(self):
        self._current: Deployment | None = None

    def deploy(self, sut: SutRef) -> Deployment:
        self.teardown_current()
        profile = sut.deploy_spec.get("profile", "v1")
        try:
            service = mocksut.serve(profile)
        except (KeyError, OSError) as exc:
            raise DeployError(f"cannot start mock SUT {profile!r}: {exc}") from exc
        container_id = f"sut-{profile}-{uuid.uuid4().hex[:12]}"
        registry = LiveRegistry()
        registry.register(container_id, service.stats)
        self._probe(service.base_url)
        deployment = Deployment(
            base_url=service.base_url,
            container_ids=[container_id],
            live_registry=registry,
            _teardown=service.stop,
        )
        self._current = deployment
        return deployment

    @staticmethod
    def _probe(base_url: str) -> None:
        try:
            response = requests.get(base_url + "/health", timeout=5)
            response.raise_for_status()
        except requests.RequestException as exc:
            raise DeployError(f"health probe failed: {exc}") from exc

    def teardown_current(self) -> None:
        if self._current is not None:
            self._current.teardown()
            self._current = None


class DockerDeployer:
    """Single-host adapter shelling out to the container runtime CLI."""

    CONTAINER_NAME = "wattbench-sut"

    def __init__(self, runtime: str = "docker", internal_port: int = 8080,
                 health_timeout_s: float = 30.0):
        self.runtime = runtime
        self.internal_port = internal_port
        self.health_timeout_s = health_timeout_s
        self._current: Deployment | None = None

    def _run(self, *args: str) -> str:
        result = subprocess.run(
            [self.runtime, *args], capture_output=True, text=True, timeout=120
        )
        if result.returncode != 0:
            raise DeployError(f"{self.runtime} {' '.join(args)}: {result.stderr.strip()}")
        return result.stdout.strip()

    def deploy(self, sut: SutRef) -> Deployment:
        self.teardown_current()
        subprocess.run(
            [self.runtime, "rm", "-f", self.CONTAINER_NAME],
            capture_output=True, text=True,
        )
        image = sut.deploy_spec.get("image", sut.image_refs[0])
        container_id = self._run(
            "run", "-d", "--name", self.CONTAINER_NAME,
            "-p", f"127.0.0.1:0:{self.internal_port}",
            image,
        )
        port = self._host_port(container_id)
        base_url = f"http://127.0.0.1:{port}"
        self._wait_healthy(base_url, container_id)
        deployment = Deployment(
            base_url=base_url,
            container_ids=[container_id],
            _teardown=lambda: subprocess.run(
                [self.runtime, "rm", "-f", container_id], capture_output=True
            ),
        )
        self._current = deployment
        return deployment

    def _host_port(self, container_id: str) -> str:
        out = self._run("port", container_id, str(self.internal_port))
        return out.splitlines()[0].rsplit(":", 1)[-1]

    def _wait_healthy(self, base_url: str, container_id: str) -> None:
        deadline = time.monotonic() + self.health_timeout_s
        while time.monotonic() < deadline:
            try:
                if requests.get(base_url + "/health", timeout=2).ok:
                    return
            except requests.RequestException:
                pass
            time.sleep(0.5)
        subprocess.run([self.runtime, "rm", "-f", container_id], capture_output=True)
        raise DeployError("health probe timeout")

    def teardown_current(self) -> None:
        if self._current is not None:
            self._current.teardown()
            self._current = None


def make_deployer(plan: TestPlan, sut: SutRef):
    adapter = sut.deploy_spec.get("adapter") or plan.deploy.get("adapter", "mock")
    if adapter == "mock":
        return MockDeployer()
    if adapter == "docker":
        return DockerDeployer(plan.deploy.get("runtime", "docker"))
    raise ConfigError(f"unknown deploy adapter: {adapter!r}")


# ---------------------------------------------------------------------------
# Run execution


def _environment_descriptor() -> dict:
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "num_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


class Orchestrator:
    """Single-threaded run loop; the load generator and agent communication
    it launches are internally concurrent."""

    def __init__(
        self,
        store: RunStore,
        deployer=None,
        agent_address: tuple[str, int] | None = None,
        simulate_profile_dir: str | None = None,
    ):
        self.store = store
        self.deployer = deployer
        self.agent_address = agent_address
        self.simulate_profile_dir = simulate_profile_dir

    def _monitoring_config(self, plan: TestPlan, deployment: Deployment | None) -> dict:
        if self.simulate_profile_dir is not None:
            power_cfg = {"type": "profile", "dir": self.simulate_profile_dir}
        else:
            backend_type = plan.monitoring.get("power_backend", "rapl")
            power_cfg = {"type": backend_type}
            for key in ("root", "dir", "idle_watts", "watts_per_cpu", "dram_watts", "max_range_uj"):
                if key in plan.monitoring:
                    power_cfg[key] = plan.monitoring[key]
        containers = deployment.container_ids if deployment else []
        if plan.container_selector != "all":
            wanted = {c.strip() for c in plan.container_selector.split(",")}
            containers = [c for c in containers if c in wanted]
        config = {
            "interval_ms": plan.sampling_interval_ms,
            "domains": list(plan.monitored_domains),
            "containers": containers,
            "power": power_cfg,
        }
        if "stats_path" in plan.monitoring:
            config["stats"] = {"type": "scripted", "path": plan.monitoring["stats_path"]}
        return config

    def _agent_session(self, deployment: Deployment | None):
        """Return (client, owned_server); the owned embedded agent serves
        this run only and can read the deployment's live registry."""
        if self.agent_address is not None:
            return amod.AgentClient(*self.agent_address), None
        server = amod.AgentServer(spool_dir=str(Path(self.store.root) / ".agent-spool"),
                                  registry=deployment.live_registry if deployment else None)
        return amod.AgentClient(*server.start().address), server

    def execute_run(self, plan: TestPlan, sut: SutRef, repetition_index: int = 0) -> RunRecord:
        run_id = f"{sut.commit_id}-r{repetition_index}-{uuid.uuid4().hex[:8]}"
        record = RunRecord(
            run_id=run_id,
            commit_id=sut.commit_id,
            plan_id=plan.plan_id,
            plan_hash=plan.plan_hash,
            repetition_index=repetition_index,
            status="valid",
            environment=_environment_descriptor(),
            warmup_ms=plan.warmup_ms,
            duration_ms=plan.duration_ms,
        )
        deployer = self.deployer or make_deployer(plan, sut)
        deployment = None
        server = None
        files: list[tuple[str, str, bytes]] = []
        try:
            try:
                deployment = deployer.deploy(sut)
            except DeployError as exc:
                return self._finish_invalid(record, f"deploy_error: {exc}", files)

            client, server = self._agent_session(deployment)
            config = self._monitoring_config(plan, deployment)
            try:
                start_reply = client.start(run_id, config)
            except AgentError as exc:
                return self._finish_invalid(record, f"agent_error: {exc}", files)
            except OSError as exc:
                return self._finish_invalid(record, f"agent_lost: {exc}", files)
            record.wall_clock_anchor = start_reply.get("anchor", "")

            try:
                load_result = lmod.run_scenario(
                    plan.scenario,
                    plan.users,
                    plan.duration_ms,
                    plan.warmup_ms,
                    deployment.base_url,
                    think_time_ms=plan.think_time_ms,
                )
            except TargetDown as exc:
                self._try_stop(client, run_id)
                return self._finish_invalid(record, f"target_down: {exc}", files)
            except BaseException:
                # an agent left running would refuse every later run as busy
                self._try_stop(client, run_id)
                raise

            try:
                stop_reply = client.stop(run_id)
                fetch_reply, payload = client.fetch(run_id)
                agent_files = amod.verify_archive(fetch_reply["manifest"], payload)
            except AgentError as exc:
                return self._finish_invalid(record, f"agent_error: {exc}", files)
            except OSError as exc:
                return self._finish_invalid(record, f"agent_lost: {exc}", files)

            record.domains = stop_reply["domains"]
            for name, data in sorted(agent_files.items()):
                kind = "power" if name.startswith("power_") else "container"
                files.append((name, kind, data))
            files.append(("requests.csv", "requests", lmod.records_csv_bytes(load_result.records)))

            if stop_reply.get("degraded"):
                return self._finish_invalid(record, f"agent_degraded: {stop_reply['error']}", files)

            self.store.persist_run(record, files)
            return record
        finally:
            if server is not None:
                server.stop()
            if deployment is not None:
                deployment.teardown()

    @staticmethod
    def _try_stop(client, run_id: str) -> None:
        try:
            client.stop(run_id)
        except (AgentError, OSError):
            pass

    def _finish_invalid(self, record: RunRecord, reason: str, files) -> RunRecord:
        record.status = "invalid"
        record.invalid_reason = reason
        try:
            self.store.persist_run(record, files)
        except WattbenchError:
            pass
        return record

    def execute_plan(self, plan: TestPlan, sut: SutRef) -> list[RunRecord]:
        """Sequential repetitions with a fresh deployment and a cool-down
        between runs; continues past individual failures."""
        records = []
        for rep in range(plan.repetitions):
            if rep > 0 and plan.cooldown_ms > 0:
                time.sleep(plan.cooldown_ms / 1e3)
            records.append(self.execute_run(plan, sut, rep))
        if all(r.status != "valid" for r in records):
            raise PlanFailed(
                f"all {plan.repetitions} repetitions invalid: "
                + "; ".join(r.invalid_reason for r in records)
            )
        return records
