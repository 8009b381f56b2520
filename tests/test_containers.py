import random

import pytest
from hypothesis import given, settings, strategies as st

from wattbench.containers import (
    HOST_ID,
    CgroupV2Backend,
    CpuShareSnapshot,
    LiveRegistry,
    ScriptedRegistry,
    attribute_power,
    attributed_power_samples,
    cpu_percent_from_usage,
    make_stats_backend,
)
from wattbench.errors import AttributionError
from wattbench.metrics import Sample, SampleSeries, classify

from conftest import agent_config, collect_session, sample_timestamps

CID = "a" * 64


class TestCpuPercent:
    def test_full_single_cpu_on_four_core_host(self):
        assert cpu_percent_from_usage(1_000_000, 1_000_000, 4) == 25.0

    def test_clamped_to_hundred(self):
        assert cpu_percent_from_usage(10_000_000, 1_000_000, 4) == 100.0

    def test_never_negative(self):
        assert cpu_percent_from_usage(-500, 1_000_000, 4) == 0.0

    def test_zero_interval_is_zero(self):
        assert cpu_percent_from_usage(1000, 0, 4) == 0.0


class TestCgroupV2Backend:
    @pytest.fixture
    def fake_cgroup(self, tmp_path):
        cg = tmp_path / "system.slice" / f"docker-{CID}.scope"
        cg.mkdir(parents=True)
        (cg / "memory.current").write_text("268435456\n")
        (cg / "cpu.stat").write_text("usage_usec 5000000\nuser_usec 4000000\n")
        return tmp_path

    def test_reads_memory_and_cpu(self, fake_cgroup):
        backend = CgroupV2Backend(str(fake_cgroup))
        assert backend.exists(CID)
        assert backend.read(CID) == (268_435_456, 5_000_000)

    def test_missing_container_rejected(self, fake_cgroup):
        backend = CgroupV2Backend(str(fake_cgroup))
        assert not backend.exists("f" * 64)
        with pytest.raises(FileNotFoundError):
            backend.read("f" * 64)


def _scripted_csv(tmp_path, rows):
    path = tmp_path / "stats.csv"
    lines = ["t_ms,container_id,memory_bytes,cpu_usage_usec"]
    lines += [f"{t},{cid},{mem},{usage}" for t, cid, mem, usage in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestScriptedRegistry:
    def test_step_lookup_returns_latest_row(self, tmp_path, monkeypatch):
        path = _scripted_csv(tmp_path, [(0, "c1", 100, 0), (1000, "c1", 200, 500_000)])
        reg = ScriptedRegistry(path)
        reg.start(50.0)
        monkeypatch.setattr("wattbench.containers.time.monotonic", lambda: 50.5)
        assert reg.read("c1") == (100, 0)
        monkeypatch.setattr("wattbench.containers.time.monotonic", lambda: 51.5)
        assert reg.read("c1") == (200, 500_000)

    def test_host_usage_is_container_sum(self, tmp_path, monkeypatch):
        path = _scripted_csv(
            tmp_path, [(0, "c1", 100, 300), (0, "c2", 100, 700)]
        )
        reg = ScriptedRegistry(path)
        reg.start(0.0)
        monkeypatch.setattr("wattbench.containers.time.monotonic", lambda: 1.0)
        assert reg.host_cpu_usec() == 1000

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,who,mem,cpu\n")
        with pytest.raises(ValueError):
            ScriptedRegistry(str(path))

    def test_factory_dispatch(self, tmp_path):
        path = _scripted_csv(tmp_path, [(0, "c1", 1, 0)])
        assert isinstance(make_stats_backend({"type": "scripted", "path": path}), ScriptedRegistry)
        with pytest.raises(ValueError):
            make_stats_backend({"type": "quantum"})


class TestLiveRegistry:
    def test_register_and_read(self):
        reg = LiveRegistry()
        reg.register("c1", lambda: (42, 7))
        assert reg.exists("c1")
        assert reg.read("c1") == (42, 7)
        assert not reg.exists("c2")
        with pytest.raises(FileNotFoundError):
            reg.read("c2")


class TestMonitorSession:
    """The agent session's tick loop, seen from the container stats."""

    def test_collects_memory_every_tick_and_cpu_from_second(self, tmp_path):
        _, files = collect_session(tmp_path, agent_config(tmp_path), 0.55)
        samples = files["container_c1.csv"]
        mem = sample_timestamps(samples, "memory_usage")
        cpu = sample_timestamps(samples, "cpu_utilization")
        assert len(mem) >= 4
        assert cpu == mem[1:]  # no CPU rate at the first tick

    def test_share_snapshots_need_host_and_container_rates(self, tmp_path):
        # scripted host usage is the container sum, so each tick's host CPU
        # share equals the containers' summed share
        _, files = collect_session(tmp_path, agent_config(tmp_path), 0.55)
        host = {s.timestamp_ms: s.value for s in files["container_host.csv"]
                if s.metric.name == "cpu_utilization"}
        assert host, "expected host CPU samples"
        per_container = {}
        for cid in ("c1", "c2"):
            for s in files[f"container_{cid}.csv"]:
                if s.metric.name == "cpu_utilization":
                    per_container[s.timestamp_ms] = per_container.get(s.timestamp_ms, 0) + s.value
        for t, pct in host.items():
            assert per_container[t] == pytest.approx(pct, abs=1e-5)
        attributed = [s for s in files["container_c1.csv"] if s.metric.name == "cpu_power"]
        assert attributed

    def test_timestamps_strictly_increase(self, tmp_path):
        _, files = collect_session(tmp_path, agent_config(tmp_path, interval_ms=200), 0.85)
        power = sample_timestamps(files["power_cpu_package.csv"])
        for cid in ("c1", "c2"):
            ts = sample_timestamps(files[f"container_{cid}.csv"], "memory_usage")
            assert ts == sorted(ts) and len(set(ts)) == len(ts)
            assert ts == power  # one timestamp per tick for counters and containers

    def test_backend_error_surfaces(self, tmp_path):
        def broken():
            raise RuntimeError("disk on fire")

        registry = LiveRegistry()
        registry.register("c1", broken)
        config = agent_config(tmp_path, with_stats=False)
        config["containers"] = ["c1"]
        stop, _ = collect_session(tmp_path, config, 0, registry)
        assert stop["degraded"] is True
        assert stop["error"] == "RuntimeError: disk on fire"


class TestAttribution:
    def test_worked_example(self):
        snap = CpuShareSnapshot(1000, 50.0, {"c1": 30.0, "c2": 10.0})
        split = attribute_power(100.0, snap)
        assert split == {"c1": 60.0, "c2": 20.0, HOST_ID: 20.0}

    def test_conservation_exact_on_1000_random_snapshots(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(1, 8)
            shares = {f"c{i}": rng.uniform(0, 12) for i in range(n)}
            host_pct = sum(shares.values()) + rng.uniform(0, 40)
            watts = rng.uniform(0, 400)
            split = attribute_power(watts, CpuShareSnapshot(0, host_pct, shares))
            assert sum(split.values()) == pytest.approx(watts, abs=1e-9)
            assert all(v >= 0 for cid, v in split.items() if cid != HOST_ID)
            assert split[HOST_ID] >= -1e-9

    def test_zero_host_share_idle(self):
        split = attribute_power(30.0, CpuShareSnapshot(0, 0.0, {"c1": 0.0}))
        assert split == {"c1": 0.0, HOST_ID: 30.0}

    def test_zero_host_share_with_container_load_rejected(self):
        with pytest.raises(AttributionError):
            attribute_power(30.0, CpuShareSnapshot(0, 0.0, {"c1": 5.0}))

    def test_small_overshoot_rescaled_onto_host_share(self):
        # reads skewed within a tick: 10.2% of container share against a
        # 10.0% host share is rescaled, conserving power with zero residual
        split = attribute_power(50.0, CpuShareSnapshot(0, 10.0, {"c1": 10.2}))
        assert split["c1"] == pytest.approx(50.0)
        assert split[HOST_ID] == pytest.approx(0.0, abs=1e-9)
        assert sum(split.values()) == pytest.approx(50.0, abs=1e-9)

    def test_overcommitted_shares_rejected(self):
        with pytest.raises(AttributionError):
            attribute_power(30.0, CpuShareSnapshot(0, 10.0, {"c1": 8.0, "c2": 7.0}))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            attribute_power(-1.0, CpuShareSnapshot(0, 50.0, {"c1": 10.0}))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1000),
        st.floats(min_value=0.1, max_value=100),
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=6),
    )
    def test_conservation_property(self, watts, host_pct, raw_shares):
        shares = {f"c{i}": s for i, s in enumerate(raw_shares)}
        if sum(shares.values()) > host_pct:
            return  # over-commit is covered by the rejection test
        split = attribute_power(watts, CpuShareSnapshot(0, host_pct, shares))
        assert sum(split.values()) == pytest.approx(watts, abs=1e-9)


class TestAttributedSeries:
    def _power_series(self, timestamps, watts):
        desc = classify("cpu_power")
        return SampleSeries(
            desc, HOST_ID, tuple(Sample(t, desc, HOST_ID, w) for t, w in zip(timestamps, watts))
        )

    def test_uses_latest_snapshot_not_newer_than_point(self):
        series = self._power_series([500, 1500, 2500], [100.0, 100.0, 100.0])
        snaps = [
            CpuShareSnapshot(1000, 50.0, {"c1": 50.0}),
            CpuShareSnapshot(2000, 50.0, {"c1": 25.0}),
        ]
        out = attributed_power_samples(series, snaps)
        by_point = {
            t: {s.scope_id: s.value for s in out if s.timestamp_ms == t} for t in (500, 1500, 2500)
        }
        assert by_point[500]["c1"] == 100.0  # before first snapshot: use the first
        assert by_point[1500]["c1"] == 100.0
        assert by_point[2500]["c1"] == 50.0
        for t, split in by_point.items():
            assert sum(split.values()) == pytest.approx(100.0, abs=1e-9)

    def test_inconsistent_snapshot_skips_point_only(self):
        series = self._power_series([1000, 2000], [100.0, 100.0])
        snaps = [
            CpuShareSnapshot(900, 10.0, {"c1": 50.0}),  # far beyond the skew allowance
            CpuShareSnapshot(1900, 50.0, {"c1": 25.0}),
        ]
        out = attributed_power_samples(series, snaps)
        assert {s.timestamp_ms for s in out} == {2000}

    def test_no_snapshots_yields_no_samples(self):
        series = self._power_series([1000], [10.0])
        assert attributed_power_samples(series, []) == []

    def test_scopes_sorted_within_each_point(self):
        series = self._power_series([1000], [90.0])
        snaps = [CpuShareSnapshot(0, 90.0, {"zeta": 30.0, "alpha": 30.0})]
        out = attributed_power_samples(series, snaps)
        assert [s.scope_id for s in out] == ["alpha", "host", "zeta"]
