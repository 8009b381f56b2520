import json
import socket
import threading
import time

import pytest

from wattbench.agent import (
    PROTOCOL_VERSION,
    AgentClient,
    AgentServer,
    AgentState,
    deterministic_tar,
    sha256_hex,
    untar_files,
    verify_archive,
)
from wattbench.containers import LiveRegistry
from wattbench.errors import AgentError, ProbeUnavailable
from wattbench.power import ProfilePowerBackend

from conftest import agent_config, collect_session, sample_timestamps


@pytest.fixture
def server(tmp_path):
    srv = AgentServer(spool_dir=str(tmp_path / "spool")).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    host, port = server.address
    return AgentClient(host, port)


class TestProtocolFraming:
    def _raw(self, server, payload: bytes) -> dict:
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(payload)
            fh.flush()
            return json.loads(fh.readline())

    def test_every_reply_carries_version(self, server, client):
        assert client.health()["v"] == PROTOCOL_VERSION
        reply = self._raw(server, b"{\"cmd\": \"health\"}\n")
        assert reply["v"] == PROTOCOL_VERSION

    def test_missing_version_rejected(self, server):
        reply = self._raw(server, b"{\"cmd\": \"health\"}\n")
        assert (reply["status"], reply["code"]) == ("error", "incompatible_version")

    def test_wrong_version_rejected(self, server):
        reply = self._raw(server, b"{\"v\": 2, \"cmd\": \"health\"}\n")
        assert reply["code"] == "incompatible_version"

    def test_invalid_json_rejected(self, server):
        assert self._raw(server, b"not json\n")["code"] == "bad_request"

    def test_unknown_command_rejected(self, server):
        reply = self._raw(server, b'{"v": 1, "cmd": "explode", "run_id": "r"}\n')
        assert reply["code"] == "bad_request"

    def test_missing_run_id_rejected(self, server):
        reply = self._raw(server, b'{"v": 1, "cmd": "stop_monitoring"}\n')
        assert reply["code"] == "bad_request"


class TestSessionLifecycle:
    def test_full_cycle_start_stop_fetch(self, client, tmp_path):
        reply = client.start("run-a", agent_config(tmp_path))
        assert reply["status"] == "ok" and reply["anchor"]
        assert client.health()["detail"] == "busy"
        time.sleep(0.45)
        stop = client.stop("run-a")
        assert stop["status"] == "ok"
        assert stop["degraded"] is False
        names = {e["relative_path"] for e in stop["manifest"]}
        # two power domains plus one resource file per monitored scope
        # (both containers and the host scope fed by the host CPU counter)
        assert names == {
            "power_cpu_package.csv",
            "power_dram.csv",
            "container_c1.csv",
            "container_c2.csv",
            "container_host.csv",
        }
        fetch_reply, payload = client.fetch("run-a")
        files = verify_archive(fetch_reply["manifest"], payload)
        assert set(files) == names
        for entry in fetch_reply["manifest"]:
            data = files[entry["relative_path"]]
            assert entry["bytes"] == len(data)
            assert entry["rows"] == data.count(b"\n") - 1
            assert entry["kind"] == (
                "power" if entry["relative_path"].startswith("power_") else "container"
            )

    def test_power_only_session_has_no_container_files(self, client, tmp_path):
        client.start("run-p", agent_config(tmp_path, with_stats=False))
        time.sleep(0.25)
        stop = client.stop("run-p")
        names = {e["relative_path"] for e in stop["manifest"]}
        assert names == {"power_cpu_package.csv", "power_dram.csv"}

    def test_second_start_while_busy_rejected(self, client, tmp_path):
        client.start("run-b", agent_config(tmp_path, with_stats=False))
        with pytest.raises(AgentError) as err:
            client.start("run-c", agent_config(tmp_path, with_stats=False))
        assert err.value.code == "busy"
        client.stop("run-b")

    def test_duplicate_run_id_rejected_after_stop(self, client, tmp_path):
        client.start("run-d", agent_config(tmp_path, with_stats=False))
        client.stop("run-d")
        with pytest.raises(AgentError) as err:
            client.start("run-d", agent_config(tmp_path, with_stats=False))
        assert err.value.code == "duplicate_run"

    def test_stop_unknown_run_rejected(self, client):
        with pytest.raises(AgentError) as err:
            client.stop("ghost")
        assert err.value.code == "not_found"

    def test_fetch_unknown_run_rejected(self, client):
        with pytest.raises(AgentError) as err:
            client.fetch("ghost")
        assert err.value.code == "not_found"

    def test_fetch_while_running_rejected(self, client, tmp_path):
        client.start("run-e", agent_config(tmp_path, with_stats=False))
        with pytest.raises(AgentError) as err:
            client.fetch("run-e")
        assert err.value.code == "not_ready"
        client.stop("run-e")

    def test_missing_probe_hardware_reported(self, client, tmp_path):
        config = {"power": {"type": "rapl", "root": str(tmp_path / "no-powercap")}}
        with pytest.raises(AgentError) as err:
            client.start("run-f", config)
        assert err.value.code == "probe_unavailable"

    @pytest.mark.parametrize("interval_ms", [50, 99, "fast"])
    def test_bad_interval_rejected_and_agent_left_idle(self, client, tmp_path, interval_ms):
        with pytest.raises(AgentError) as err:
            client.start("run-j", agent_config(tmp_path, interval_ms=interval_ms))
        assert err.value.code == "bad_config"
        assert client.health()["detail"] == "idle"

    def test_stop_reply_names_discovered_counter_ranges(self, client, tmp_path):
        client.start("run-k", agent_config(tmp_path, with_stats=False))
        stop = client.stop("run-k")
        assert stop["domains"] == [
            {"kind": "cpu_package", "max_range_uj": 2**32},
            {"kind": "dram", "max_range_uj": 2**32},
        ]

    def test_unknown_domain_reported(self, client, tmp_path):
        config = agent_config(tmp_path, with_stats=False)
        config["domains"] = ["cpu_package", "psys"]
        with pytest.raises(AgentError) as err:
            client.start("run-g", config)
        assert err.value.code in {"bad_config", "probe_unavailable"}

    def test_repeated_fetch_is_byte_identical(self, client, tmp_path):
        client.start("run-h", agent_config(tmp_path, with_stats=False))
        time.sleep(0.25)
        client.stop("run-h")
        _, first = client.fetch("run-h")
        _, second = client.fetch("run-h")
        assert first == second

    def test_spool_files_written_on_stop(self, server, client, tmp_path):
        client.start("run-i", agent_config(tmp_path, with_stats=False))
        time.sleep(0.25)
        stop = client.stop("run-i")
        spool = server.state.spool_dir / "run-i"
        for entry in stop["manifest"]:
            on_disk = (spool / entry["relative_path"]).read_bytes()
            assert sha256_hex(on_disk) == entry["checksum"]


class TestSampler:
    """The session's one tick loop over counters, containers and host CPU."""

    def test_one_collector_thread_per_session(self, tmp_path):
        state = AgentState(str(tmp_path / "spool"))
        before = set(threading.enumerate())
        state.handle_start("run", agent_config(tmp_path))
        started = set(threading.enumerate()) - before
        state.handle_stop("run")
        assert len(started) == 1

    def test_slow_counter_reads_keep_one_timestamp_per_tick(self, tmp_path, monkeypatch):
        read_uj = ProfilePowerBackend.read_uj

        def slow_read(self, domain):
            time.sleep(0.15)
            return read_uj(self, domain)

        monkeypatch.setattr(ProfilePowerBackend, "read_uj", slow_read)
        registry = LiveRegistry()
        registry.register("sut", lambda: (100, 0))
        config = agent_config(tmp_path, with_stats=False)
        config["containers"] = ["sut"]
        _, files = collect_session(tmp_path, config, 1.0, registry)
        power = set(sample_timestamps(files["power_cpu_package.csv"]))
        memory = sample_timestamps(files["container_sut.csv"], "memory_usage")
        assert memory and all(t in power for t in memory)

    def test_vanished_container_dropped_and_polling_continues(self, tmp_path):
        reads = {"n": 0}

        def vanishing():
            reads["n"] += 1
            if reads["n"] > 2:
                raise FileNotFoundError("c2")
            return 200, 0

        registry = LiveRegistry()
        registry.register("c1", lambda: (100, 0))
        registry.register("c2", vanishing)
        config = agent_config(tmp_path, with_stats=False)
        config["containers"] = ["c1", "c2"]
        stop, files = collect_session(tmp_path, config, 0.5, registry)
        assert stop["degraded"] is False
        c1 = sample_timestamps(files["container_c1.csv"], "memory_usage")
        c2 = sample_timestamps(files["container_c2.csv"], "memory_usage")
        assert c1[-1] > 300
        assert c2 == c1[:2]
        assert reads["n"] == 3  # not read again once gone


class TestDeterministicTar:
    FILES = {"b.csv": b"2\n", "a.csv": b"1\n"}

    def test_roundtrip(self):
        assert untar_files(deterministic_tar(self.FILES)) == self.FILES

    def test_byte_stable_across_calls_and_insert_order(self):
        reordered = {"a.csv": b"1\n", "b.csv": b"2\n"}
        assert deterministic_tar(self.FILES) == deterministic_tar(reordered)

    def test_members_sorted_with_zeroed_metadata(self):
        import io
        import tarfile

        payload = deterministic_tar(self.FILES)
        with tarfile.open(fileobj=io.BytesIO(payload)) as tar:
            members = tar.getmembers()
            assert [m.name for m in members] == ["a.csv", "b.csv"]
            assert all(m.mtime == 0 and m.uid == 0 and m.gid == 0 for m in members)

    def test_verify_archive_detects_corruption(self):
        payload = deterministic_tar(self.FILES)
        manifest = [
            {"relative_path": "a.csv", "checksum": sha256_hex(b"1\n")},
            {"relative_path": "b.csv", "checksum": sha256_hex(b"TAMPERED")},
        ]
        with pytest.raises(AgentError):
            verify_archive(manifest, payload)

    def test_verify_archive_detects_missing_member(self):
        payload = deterministic_tar({"a.csv": b"1\n"})
        manifest = [{"relative_path": "z.csv", "checksum": sha256_hex(b"x")}]
        with pytest.raises(AgentError):
            verify_archive(manifest, payload)
