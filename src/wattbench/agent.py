"""Testbed-side agent: starts/stops collectors on command and ships the
collected data back over a newline-delimited-JSON TCP protocol.

Every command and reply carries a mandatory protocol version field ``v``;
the fetch payload is transferred as length-prefixed binary after the JSON
reply. The agent runs at most one monitoring session at a time; stopped
sessions are kept so results can be fetched (repeatedly, byte-identically)
until the agent shuts down.
"""

from __future__ import annotations

import hashlib
import io
import json
import socket
import socketserver
import struct
import tarfile
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import containers as cmod
from . import power as pmod
from .errors import AgentError, ProbeUnavailable
from .metrics import Sample, samples_csv_bytes
from .serving import ServerThread

PROTOCOL_VERSION = 1
_LEN_PREFIX = struct.Struct(">Q")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def default_backend_factory(config: dict):
    """Build collector backends from a start_monitoring config dict."""
    power_backend = pmod.make_power_backend(config.get("power", {"type": "rapl"}))
    stats_cfg = config.get("stats")
    stats_backend = cmod.make_stats_backend(stats_cfg) if stats_cfg else None
    host_cpu_fn = getattr(stats_backend, "host_cpu_usec", None)
    return power_backend, stats_backend, host_cpu_fn


@dataclass
class _Session:
    run_id: str
    config: dict
    stop_event: threading.Event = field(default_factory=threading.Event)
    threads: list[threading.Thread] = field(default_factory=list)
    probe: pmod.ProbeSession | None = None
    monitor: cmod.MonitorSession | None = None
    domains: dict = field(default_factory=dict)
    anchor_wall_clock: str = ""


@dataclass
class _StoppedRun:
    run_id: str
    manifest: list[dict]
    files: dict[str, bytes]
    degraded: bool


class AgentState:
    """Session registry shared by all connection handlers; command handling
    is serialized against session transitions by one lock."""

    def __init__(self, spool_dir: str, backend_factory=default_backend_factory):
        self.spool_dir = Path(spool_dir)
        self.backend_factory = backend_factory
        self.lock = threading.Lock()
        self.active: _Session | None = None
        self.stopped: dict[str, _StoppedRun] = {}

    # -- command handlers ---------------------------------------------------

    def handle_health(self) -> dict:
        with self.lock:
            busy = self.active is not None
        return _ok(detail="busy" if busy else "idle")

    def handle_start(self, run_id: str, config: dict) -> dict:
        with self.lock:
            if self.active is not None:
                return _error("busy", f"session {self.active.run_id} is active")
            if run_id in self.stopped:
                return _error("duplicate_run", f"run {run_id} already collected")
            try:
                power_backend, stats_backend, host_cpu_fn = self.backend_factory(config)
                discovered = power_backend.discover()
                wanted = config.get("domains") or [k.value for k in discovered]
                domains = {}
                for kind_name in wanted:
                    kind = pmod.DomainKind(kind_name)
                    if kind not in discovered:
                        raise ProbeUnavailable(f"domain {kind_name} not available")
                    domains[kind] = discovered[kind]
            except ProbeUnavailable as exc:
                return _error("probe_unavailable", str(exc))
            except Exception as exc:
                return _error("bad_config", str(exc))

            interval_ms = int(config.get("interval_ms", 1000))
            session = _Session(run_id, config)
            session.domains = domains
            session.anchor_wall_clock = datetime.now(timezone.utc).isoformat()
            anchor = time.monotonic()

            session.probe = pmod.ProbeSession(power_backend, list(domains.values()), interval_ms)
            probe_thread = threading.Thread(
                target=_swallow(session.probe.run), args=(session.stop_event, anchor), daemon=True
            )
            session.threads.append(probe_thread)

            container_ids = config.get("containers") or []
            if stats_backend is not None and container_ids:
                session.monitor = cmod.MonitorSession(
                    stats_backend, container_ids, interval_ms, host_cpu_fn
                )
                monitor_thread = threading.Thread(
                    target=_swallow(session.monitor.run),
                    args=(session.stop_event, anchor),
                    daemon=True,
                )
                session.threads.append(monitor_thread)

            for t in session.threads:
                t.start()
            self.active = session
        return _ok(detail="monitoring started", token=run_id, anchor=session.anchor_wall_clock)

    def handle_stop(self, run_id: str) -> dict:
        with self.lock:
            session = self.active
            if session is None or session.run_id != run_id:
                return _error("not_found", f"no active session for run {run_id}")
            self.active = None
        session.stop_event.set()
        for t in session.threads:
            t.join(timeout=30)
        degraded = any(t.is_alive() for t in session.threads)
        if session.probe and session.probe.error is not None:
            degraded = True
        if session.monitor and session.monitor.error is not None:
            degraded = True

        files, degraded_flush = _flush_session(session)
        degraded = degraded or degraded_flush
        manifest = [
            {
                "relative_path": name,
                "kind": "power" if name.startswith("power_") else "container",
                "checksum": sha256_hex(data),
                "rows": data.count(b"\n") - 1,
                "bytes": len(data),
            }
            for name, data in sorted(files.items())
        ]
        with self.lock:
            self.stopped[run_id] = _StoppedRun(run_id, manifest, files, degraded)
        spool = self.spool_dir / run_id
        spool.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (spool / name).write_bytes(data)
        return _ok(
            detail="stopped",
            manifest=manifest,
            degraded=degraded,
            anchor=session.anchor_wall_clock,
        )

    def handle_fetch(self, run_id: str) -> tuple[dict, bytes | None]:
        with self.lock:
            if self.active is not None and self.active.run_id == run_id:
                return _error("not_ready", "session still running"), None
            run = self.stopped.get(run_id)
        if run is None:
            return _error("not_found", f"run {run_id} not on this agent"), None
        payload = deterministic_tar(run.files)
        return _ok(detail="archive follows", manifest=run.manifest, degraded=run.degraded), payload


def _swallow(fn):
    # collector errors are surfaced through session.error at stop time
    def run(*args):
        try:
            fn(*args)
        except Exception:
            pass

    return run


def _flush_session(session: _Session) -> tuple[dict[str, bytes], bool]:
    """Render collected readings into the canonical CSV files."""
    files: dict[str, bytes] = {}
    degraded = False
    probe = session.probe
    readings_by_kind = probe.readings if probe else {}
    for kind, readings in readings_by_kind.items():
        samples = [
            Sample(r.timestamp_ms, _counter_descriptor(kind), cmod.HOST_ID, float(r.raw_uj))
            for r in readings
        ]
        files[f"power_{kind.value}.csv"] = samples_csv_bytes(samples)

    monitor = session.monitor
    if monitor is not None:
        samples = list(monitor.result.samples)
        # attributed per-container power (origin: derived)
        cpu_readings = readings_by_kind.get(pmod.DomainKind.CPU_PACKAGE, [])
        if len(cpu_readings) >= 2 and monitor.result.snapshots:
            try:
                trace = pmod.power_from_counters(
                    cpu_readings, session.domains[pmod.DomainKind.CPU_PACKAGE]
                )
                samples.extend(
                    cmod.attributed_power_samples(trace.points, monitor.result.snapshots)
                )
            except Exception:
                degraded = True
        # one resource file per monitored scope (containers plus, when host
        # monitoring is on, the reserved host scope)
        by_scope: dict[str, list] = {}
        for sample in samples:
            by_scope.setdefault(sample.scope_id, []).append(sample)
        for scope_id, scope_samples in by_scope.items():
            scope_samples.sort(key=lambda s: (s.metric.name, s.timestamp_ms))
            files[f"container_{scope_id}.csv"] = samples_csv_bytes(scope_samples)
    return files, degraded


def _counter_descriptor(kind: pmod.DomainKind):
    from .metrics import classify

    return classify(pmod.COUNTER_METRIC[kind.value])


def deterministic_tar(files: dict[str, bytes]) -> bytes:
    """Byte-stable tar of the session files (fixed metadata, sorted names)."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for name in sorted(files):
            info = tarfile.TarInfo(name)
            info.size = len(files[name])
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            tar.addfile(info, io.BytesIO(files[name]))
    return buf.getvalue()


def untar_files(payload: bytes) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    with tarfile.open(fileobj=io.BytesIO(payload), mode="r") as tar:
        for member in tar.getmembers():
            fh = tar.extractfile(member)
            if fh is not None:
                out[member.name] = fh.read()
    return out


def _ok(**fields) -> dict:
    return {"v": PROTOCOL_VERSION, "status": "ok", "code": "ok", **fields}


def _error(code: str, detail: str) -> dict:
    return {"v": PROTOCOL_VERSION, "status": "error", "code": code, "detail": detail}


# ---------------------------------------------------------------------------
# TCP server


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True

    def handle(self):
        state: AgentState = self.server.state
        line = self.rfile.readline()
        if not line:
            return
        try:
            request = json.loads(line)
        except ValueError:
            self._send(_error("bad_request", "request is not valid JSON"))
            return
        if request.get("v") != PROTOCOL_VERSION:
            self._send(_error("incompatible_version", f"expected v={PROTOCOL_VERSION}"))
            return
        cmd = request.get("cmd")
        run_id = request.get("run_id", "")
        if cmd != "health" and not run_id:
            self._send(_error("bad_request", "run_id is required"))
            return
        if cmd == "health":
            self._send(state.handle_health())
        elif cmd == "start_monitoring":
            self._send(state.handle_start(run_id, request.get("config") or {}))
        elif cmd == "stop_monitoring":
            self._send(state.handle_stop(run_id))
        elif cmd == "fetch_results":
            reply, payload = state.handle_fetch(run_id)
            self._send(reply)
            if payload is not None:
                self.wfile.write(_LEN_PREFIX.pack(len(payload)))
                self.wfile.write(payload)
        else:
            self._send(_error("bad_request", f"unknown command {cmd!r}"))

    def _send(self, reply: dict) -> None:
        self.wfile.write(json.dumps(reply, sort_keys=True).encode("utf-8") + b"\n")


class AgentServer:
    """TCP agent serving one command per connection, concurrently."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, spool_dir: str = "agent-spool",
                 backend_factory=default_backend_factory):
        self.state = AgentState(spool_dir, backend_factory)
        self._server = socketserver.ThreadingTCPServer((host, port), _Handler, bind_and_activate=True)
        self._server.daemon_threads = True
        self._server.state = self.state
        self._runner = ServerThread(self._server)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "AgentServer":
        self._runner.start()
        return self

    def stop(self) -> None:
        self._runner.stop()


class AgentClient:
    """One-connection-per-command client for the agent protocol."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _roundtrip(self, request: dict, expect_payload: bool = False):
        with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps(request).encode("utf-8") + b"\n")
            fh.flush()
            reply = json.loads(fh.readline())
            payload = None
            if expect_payload and reply.get("status") == "ok":
                size = _LEN_PREFIX.unpack(fh.read(_LEN_PREFIX.size))[0]
                payload = fh.read(size)
        return reply, payload

    def _command(self, cmd: str, run_id: str = "", config: dict | None = None,
                 expect_payload: bool = False):
        request = {"v": PROTOCOL_VERSION, "cmd": cmd, "run_id": run_id}
        if config is not None:
            request["config"] = config
        return self._roundtrip(request, expect_payload)

    def health(self) -> dict:
        reply, _ = self._command("health")
        return reply

    def start(self, run_id: str, config: dict) -> dict:
        reply, _ = self._command("start_monitoring", run_id, config)
        if reply["status"] != "ok":
            raise AgentError(reply["code"], reply.get("detail", ""))
        return reply

    def stop(self, run_id: str) -> dict:
        reply, _ = self._command("stop_monitoring", run_id)
        if reply["status"] != "ok":
            raise AgentError(reply["code"], reply.get("detail", ""))
        return reply

    def fetch(self, run_id: str) -> tuple[dict, bytes]:
        reply, payload = self._command("fetch_results", run_id, expect_payload=True)
        if reply["status"] != "ok":
            raise AgentError(reply["code"], reply.get("detail", ""))
        return reply, payload


def verify_archive(manifest: list[dict], payload: bytes) -> dict[str, bytes]:
    """Extract a fetched archive and check it against stop-time checksums."""
    files = untar_files(payload)
    for entry in manifest:
        name = entry["relative_path"]
        data = files.get(name)
        if data is None:
            raise AgentError("integrity", f"archive is missing {name}")
        if sha256_hex(data) != entry["checksum"]:
            raise AgentError("integrity", f"checksum mismatch for {name}")
    return files
