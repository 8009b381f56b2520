import random
import time

import pytest

from wattbench.agent import AgentState
from wattbench.errors import ImplausiblePower, InsufficientData, ProbeUnavailable, RangeError
from wattbench.power import (
    CounterReading,
    CpuModelPowerBackend,
    DomainKind,
    EnergyDomain,
    ProfilePowerBackend,
    RaplSysfsBackend,
    delta_energy,
    make_power_backend,
    power_from_counters,
)

from conftest import agent_config, collect_session, sample_timestamps

RAPL_RANGE = 262_143_328_850


class TestDeltaEnergy:
    def test_no_wrap(self):
        assert delta_energy(100, 600, RAPL_RANGE) == 500

    def test_single_wrap(self):
        assert delta_energy(262_143_328_000, 500, RAPL_RANGE) == 1350

    def test_identity(self):
        assert delta_energy(123, 123, RAPL_RANGE) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            delta_energy(-1, 0, RAPL_RANGE)
        with pytest.raises(RangeError):
            delta_energy(0, RAPL_RANGE + 1, RAPL_RANGE)

    def test_matches_modular_oracle_on_10000_random_triples(self):
        rng = random.Random(42)
        for _ in range(10_000):
            max_range = rng.randint(1, 2**40)
            prev = rng.randint(0, max_range - 1)
            curr = rng.randint(0, max_range - 1)
            assert delta_energy(prev, curr, max_range) == (curr - prev) % max_range


class TestPowerFromCounters:
    DOMAIN = EnergyDomain(DomainKind.CPU_PACKAGE, "test", 2**48)

    def test_constant_one_watt(self):
        readings = [CounterReading(t, t * 1000) for t in range(0, 10_001, 1000)]
        trace = power_from_counters(readings, self.DOMAIN)
        assert len(trace.points) == len(readings) - 1
        assert all(abs(v - 1.0) < 1e-12 for v in trace.points.values())
        # points timestamped at the closing reading
        assert trace.points.samples[0].timestamp_ms == 1000

    def test_single_reading_rejected(self):
        with pytest.raises(InsufficientData):
            power_from_counters([CounterReading(0, 0)], self.DOMAIN)

    def test_triangle_wave_integral_matches_counter_delta(self):
        # power ramps up then down; integral of points must equal end-start
        raw = 0
        readings = [CounterReading(0, 0)]
        for i, watts in enumerate(list(range(1, 50)) + list(range(50, 0, -1))):
            raw += watts * 1_000_000  # 1 s at `watts`
            readings.append(CounterReading((i + 1) * 1000, raw))
        trace = power_from_counters(readings, self.DOMAIN)
        integral = sum(
            point.value * (curr.timestamp_ms - prev.timestamp_ms) / 1e3
            for point, prev, curr in zip(trace.points.samples, readings, readings[1:])
        )
        expected = (readings[-1].raw_uj - readings[0].raw_uj) / 1e6
        assert abs(integral - expected) / expected < 1e-9

    def test_implausible_delta_invalidates(self):
        readings = [CounterReading(0, 0), CounterReading(1000, 2_000_000_000)]  # 2000 W
        with pytest.raises(ImplausiblePower):
            power_from_counters(readings, self.DOMAIN)

    def test_energy_conservation_on_1000_random_traces_with_wraps(self):
        rng = random.Random(7)
        for _ in range(1000):
            max_range = rng.randint(10**6, 10**12)
            domain = EnergyDomain(DomainKind.CPU_PACKAGE, "sim", max_range)
            n = rng.randint(2, 40)
            t, raw = 0, rng.randint(0, max_range - 1)
            readings = [CounterReading(t, raw)]
            total_uj = 0
            for _ in range(n - 1):
                dt = rng.randint(100, 2000)
                # keep implied watts under the sanity ceiling
                duj = rng.randint(0, min(int(999.0 * dt * 1000), max_range - 1))
                t += dt
                raw = (raw + duj) % max_range
                total_uj += duj
                readings.append(CounterReading(t, raw))
            trace = power_from_counters(readings, domain)
            assert all(v >= 0 for v in trace.points.values())
            integral_uj = sum(
                point.value * (curr.timestamp_ms - prev.timestamp_ms) * 1000.0
                for point, prev, curr in zip(trace.points.samples, readings, readings[1:])
            )
            assert integral_uj == pytest.approx(total_uj, rel=1e-6, abs=1e-6)


class TestProfileBackend:
    @pytest.fixture
    def profile_dir(self, tmp_path):
        (tmp_path / "cpu_package.csv").write_text("t_ms,watts\n0,10.0\n")
        (tmp_path / "dram.csv").write_text("t_ms,watts\n0,0.5\n")
        return tmp_path

    def test_constant_source_integrates_exactly(self, profile_dir):
        backend = ProfilePowerBackend(str(profile_dir))
        assert backend.energy_uj_at(DomainKind.CPU_PACKAGE, 5000) == 50_000_000

    def test_origin_is_zero(self, profile_dir):
        backend = ProfilePowerBackend(str(profile_dir))
        assert backend.energy_uj_at(DomainKind.CPU_PACKAGE, 0) == 0

    def test_step_profile(self, tmp_path):
        (tmp_path / "cpu_package.csv").write_text("t_ms,watts\n0,10.0\n1000,20.0\n")
        backend = ProfilePowerBackend(str(tmp_path))
        # 1 s at 10 W + 0.5 s at 20 W
        assert backend.energy_uj_at(DomainKind.CPU_PACKAGE, 1500) == 20_000_000

    def test_counter_wraps_at_max_range(self, profile_dir, monkeypatch):
        backend = ProfilePowerBackend(str(profile_dir), max_range_uj=30_000_000)
        domain = backend.discover()[DomainKind.CPU_PACKAGE]
        backend.start(100.0)
        monkeypatch.setattr("wattbench.power.time.monotonic", lambda: 105.0)
        assert backend.read_uj(domain) == 50_000_000 % 30_000_000

    def test_missing_profiles_rejected(self, tmp_path):
        with pytest.raises(ProbeUnavailable):
            ProfilePowerBackend(str(tmp_path / "nope"))


class TestRaplSysfsBackend:
    @pytest.fixture
    def fake_powercap(self, tmp_path):
        pkg = tmp_path / "intel-rapl:0"
        pkg.mkdir()
        (pkg / "name").write_text("package-0\n")
        (pkg / "energy_uj").write_text("123456789\n")
        (pkg / "max_energy_range_uj").write_text(f"{RAPL_RANGE}\n")
        dram = tmp_path / "intel-rapl:0:0"
        dram.mkdir()
        (dram / "name").write_text("dram\n")
        (dram / "energy_uj").write_text("4242\n")
        (dram / "max_energy_range_uj").write_text(f"{RAPL_RANGE}\n")
        return tmp_path

    def test_discovers_package_and_dram(self, fake_powercap):
        backend = RaplSysfsBackend(str(fake_powercap))
        domains = backend.discover()
        assert set(domains) == {DomainKind.CPU_PACKAGE, DomainKind.DRAM}
        assert domains[DomainKind.CPU_PACKAGE].max_range_uj == RAPL_RANGE
        assert backend.read_uj(domains[DomainKind.CPU_PACKAGE]) == 123456789
        assert backend.read_uj(domains[DomainKind.DRAM]) == 4242

    def test_hardware_path_missing_rejected(self, tmp_path):
        with pytest.raises(ProbeUnavailable):
            make_power_backend({"type": "rapl", "root": str(tmp_path)})

    def test_unreadable_counter_rejected(self, fake_powercap):
        backend = RaplSysfsBackend(str(fake_powercap))
        bogus = EnergyDomain(DomainKind.CPU_PACKAGE, str(fake_powercap / "gone"), RAPL_RANGE)
        with pytest.raises(ProbeUnavailable):
            backend.read_uj(bogus)


class TestSampleStream:
    """The agent session's tick loop, seen from the energy counters."""

    def test_interval_floor_enforced(self, tmp_path):
        state = AgentState(str(tmp_path / "spool"))
        reply = state.handle_start("slow", agent_config(tmp_path, interval_ms=99))
        assert (reply["status"], reply["code"]) == ("error", "bad_config")
        assert state.handle_start("ok", agent_config(tmp_path, interval_ms=100))["status"] == "ok"
        state.handle_stop("ok")

    def test_immediate_stop_still_yields_initial_reading(self, tmp_path):
        stop, files = collect_session(tmp_path, agent_config(tmp_path, interval_ms=1000), 0)
        assert stop["degraded"] is False
        assert len(files["power_cpu_package.csv"]) >= 1
        assert len(files["power_dram.csv"]) >= 1

    def test_two_domains_sampled_in_lockstep(self, tmp_path):
        config = agent_config(tmp_path, with_stats=False, interval_ms=200)
        _, files = collect_session(tmp_path, config, 0.85)
        ts = sample_timestamps(files["power_cpu_package.csv"])
        # ~0.85 s at 200 ms: initial + 4 scheduled + final stop read
        assert 4 <= len(ts) <= 7
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        assert sample_timestamps(files["power_dram.csv"]) == ts

    def test_mid_stream_probe_failure_surfaces(self, tmp_path, monkeypatch):
        read_uj = ProfilePowerBackend.read_uj
        calls = {"n": 0}

        def flaky(self, domain):
            calls["n"] += 1
            if calls["n"] > 3:
                raise ProbeUnavailable("counter vanished")
            return read_uj(self, domain)

        monkeypatch.setattr(ProfilePowerBackend, "read_uj", flaky)
        stop, _ = collect_session(tmp_path, agent_config(tmp_path, with_stats=False), 0.4)
        assert stop["degraded"] is True
        assert stop["error"] == "ProbeUnavailable: counter vanished"


class TestCpuModelBackend:
    def test_counts_idle_and_cpu_energy(self):
        backend = CpuModelPowerBackend(idle_watts=10.0, watts_per_cpu=0.0, dram_watts=0.5)
        domains = backend.discover()
        backend.start(time.monotonic() - 2.0)
        pkg = backend.read_uj(domains[DomainKind.CPU_PACKAGE])
        assert pkg >= 20_000_000  # >= 2 s of idle draw
        dram = backend.read_uj(domains[DomainKind.DRAM])
        assert dram >= 1_000_000
