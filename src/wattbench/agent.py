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
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import containers as cmod
from . import power as pmod
from .errors import AgentError, ProbeUnavailable
from .metrics import Sample, classify, samples_csv_bytes
from .serving import ServerThread

PROTOCOL_VERSION = 1
_LEN_PREFIX = struct.Struct(">Q")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_backends(config: dict, registry=None):
    """Build the power and container-stats backends a start_monitoring
    config names. Without a ``stats`` section, container stats come from
    ``registry``, the live registry of an in-process deployment (or none)."""
    power_backend = pmod.make_power_backend(config.get("power", {"type": "rapl"}))
    stats_cfg = config.get("stats")
    stats_backend = cmod.make_stats_backend(stats_cfg) if stats_cfg else registry
    return power_backend, stats_backend


class _Session:
    """One monitoring run. A single collector thread reads every energy
    counter, every container's stats and host CPU once per tick; all of a
    tick's readings share one timestamp."""

    def __init__(self, run_id: str, power_backend, domains: dict, stats_backend,
                 container_ids: list[str], interval_ms: int):
        if interval_ms < 100:
            raise ValueError("sampling interval must be >= 100 ms")
        self.run_id = run_id
        self.power_backend = power_backend
        self.domains: dict[pmod.DomainKind, pmod.EnergyDomain] = domains
        # containers are polled only when there are both a backend and ids
        self.stats_backend = stats_backend if container_ids else None
        self.container_ids = list(container_ids) if stats_backend is not None else []
        self.interval_ms = interval_ms
        self.readings: dict[pmod.DomainKind, list[pmod.CounterReading]] = {k: [] for k in domains}
        self.samples: list[Sample] = []
        self.snapshots: list[cmod.CpuShareSnapshot] = []
        self.error: Exception | None = None
        self.stop_event = threading.Event()
        self.anchor_wall_clock = datetime.now(timezone.utc).isoformat()
        self._thread = threading.Thread(target=self._collect, args=(time.monotonic(),),
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> str:
        """Stop the collector; returns why the session is degraded, or ""."""
        self.stop_event.set()
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            return "collector did not stop within 30 s"
        if self.error is not None:
            return f"{type(self.error).__name__}: {self.error}"
        return ""

    def _collect(self, t0: float) -> None:
        """Read once per interval until the stop signal, then once more. The
        first tick reads even when the signal is already set.

        Timestamps come from the monotonic clock relative to ``t0``; jitter
        is tolerated but readings are never back-dated.
        """
        stats = self.stats_backend
        for backend in (self.power_backend, stats):
            if hasattr(backend, "start"):
                backend.start(t0)
        host_cpu_fn = getattr(stats, "host_cpu_usec", None)
        num_cpus = stats.num_cpus() if stats is not None else 1
        mem_desc = classify("memory_usage")
        cpu_desc = classify("cpu_utilization")
        active = list(self.container_ids)
        prev_usage: dict[str, tuple[int, int]] = {}
        prev_host: tuple[int, int] | None = None
        last_ts = -1
        tick = 0
        try:
            while True:
                now_ms = max(int(round((time.monotonic() - t0) * 1e3)), last_ts + 1)
                last_ts = now_ms
                for kind, domain in self.domains.items():
                    raw = self.power_backend.read_uj(domain)
                    self.readings[kind].append(pmod.CounterReading(now_ms, raw))
                per_container: dict[str, float] = {}
                for cid in list(active):
                    try:
                        memory, usage = stats.read(cid)
                    except (FileNotFoundError, KeyError, OSError):
                        active.remove(cid)  # the container is gone; keep polling the rest
                        continue
                    self.samples.append(Sample(now_ms, mem_desc, cid, float(memory)))
                    if cid in prev_usage:
                        p_ts, p_usage = prev_usage[cid]
                        pct = cmod.cpu_percent_from_usage(
                            usage - p_usage, (now_ms - p_ts) * 1e3, num_cpus
                        )
                        per_container[cid] = pct
                        self.samples.append(Sample(now_ms, cpu_desc, cid, pct))
                    prev_usage[cid] = (now_ms, usage)
                if host_cpu_fn is not None:
                    usec = host_cpu_fn()
                    if prev_host is not None and per_container:
                        host_pct = cmod.cpu_percent_from_usage(
                            usec - prev_host[1], (now_ms - prev_host[0]) * 1e3, num_cpus
                        )
                        self.samples.append(Sample(now_ms, cpu_desc, cmod.HOST_ID, host_pct))
                        self.snapshots.append(
                            cmod.CpuShareSnapshot(now_ms, host_pct, per_container)
                        )
                    prev_host = (now_ms, usec)
                if self.stop_event.is_set():
                    break
                tick += 1
                delay = t0 + tick * self.interval_ms / 1e3 - time.monotonic()
                if delay > 0:
                    self.stop_event.wait(delay)
        except Exception as exc:  # reported in the stop reply; the session is degraded
            self.error = exc


@dataclass
class _StoppedRun:
    run_id: str
    manifest: list[dict]
    files: dict[str, bytes]
    degraded: bool


class AgentState:
    """Session registry shared by all connection handlers; command handling
    is serialized against session transitions by one lock.

    ``registry`` is the live container registry of an in-process deployment;
    sessions whose config has no ``stats`` section read container stats
    from it.
    """

    def __init__(self, spool_dir: str, registry=None):
        self.spool_dir = Path(spool_dir)
        self.registry = registry
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
                power_backend, stats_backend = make_backends(config, self.registry)
                discovered = power_backend.discover()
                wanted = config.get("domains") or [k.value for k in discovered]
                domains = {}
                for kind_name in wanted:
                    kind = pmod.DomainKind(kind_name)
                    if kind not in discovered:
                        raise ProbeUnavailable(f"domain {kind_name} not available")
                    domains[kind] = discovered[kind]
                session = _Session(run_id, power_backend, domains, stats_backend,
                                   config.get("containers") or [],
                                   int(config.get("interval_ms", 1000)))
            except ProbeUnavailable as exc:
                return _error("probe_unavailable", str(exc))
            except Exception as exc:
                return _error("bad_config", str(exc))
            session.start()
            self.active = session
        return _ok(detail="monitoring started", token=run_id, anchor=session.anchor_wall_clock)

    def handle_stop(self, run_id: str) -> dict:
        with self.lock:
            session = self.active
            if session is None or session.run_id != run_id:
                return _error("not_found", f"no active session for run {run_id}")
            self.active = None
        error = session.stop()
        files, flush_error = _flush_session(session)
        error = error or flush_error
        degraded = bool(error)
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
            error=error,
            domains=[{"kind": kind.value, "max_range_uj": domain.max_range_uj}
                     for kind, domain in session.domains.items()],
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


def _flush_session(session: _Session) -> tuple[dict[str, bytes], str]:
    """Render collected readings into the canonical CSV files; the second
    value says why attribution failed, or is ""."""
    files: dict[str, bytes] = {}
    error = ""
    for kind, readings in session.readings.items():
        descriptor = classify(pmod.COUNTER_METRIC[kind.value])
        samples = [
            Sample(r.timestamp_ms, descriptor, cmod.HOST_ID, float(r.raw_uj)) for r in readings
        ]
        files[f"power_{kind.value}.csv"] = samples_csv_bytes(samples)

    if session.stats_backend is not None:
        samples = list(session.samples)
        # attributed per-container power (origin: derived)
        cpu_readings = session.readings.get(pmod.DomainKind.CPU_PACKAGE, [])
        if len(cpu_readings) >= 2 and session.snapshots:
            try:
                trace = pmod.power_from_counters(
                    cpu_readings, session.domains[pmod.DomainKind.CPU_PACKAGE]
                )
                samples.extend(cmod.attributed_power_samples(trace.points, session.snapshots))
            except Exception as exc:
                error = f"attribution failed: {type(exc).__name__}: {exc}"
        # one resource file per monitored scope (containers plus, when host
        # monitoring is on, the reserved host scope)
        by_scope: dict[str, list] = {}
        for sample in samples:
            by_scope.setdefault(sample.scope_id, []).append(sample)
        for scope_id, scope_samples in by_scope.items():
            scope_samples.sort(key=lambda s: (s.metric.name, s.timestamp_ms))
            files[f"container_{scope_id}.csv"] = samples_csv_bytes(scope_samples)
    return files, error


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
                 registry=None):
        self.state = AgentState(spool_dir, registry)
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
