"""Bundled HTTP login service with tunable per-request CPU work.

Profiles v1-v4 emulate a token-issuing API evolving across four commits:
v1 baseline, v2 same work with a much larger response payload, v3 a heavy
signing path, v4 the heavy path partially optimized. The per-request burn
is a fixed deterministic integer kernel, so energy differences between
profiles are attributable to the profile and reproduce across hosts in
ordering even when absolute timings differ.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .serving import ServerThread

BASE_MEMORY_BYTES = 50 * 1024 * 1024

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SutProfile:
    profile_id: str
    cpu_work_units: int
    payload_bytes: int
    base_latency_ms: float = 0.0


# work-unit ratios keep the heavy/baseline energy ratio in a realistic band
# on the cpu-model backend: v3 > v4 > v1 ~= v2, v2 payload >> v1 payload
PROFILES: dict[str, SutProfile] = {
    "v1": SutProfile("v1", 4_000, 256, 0.5),
    "v2": SutProfile("v2", 4_000, 2_048, 0.5),
    "v3": SutProfile("v3", 70_000, 512, 0.5),
    "v4": SutProfile("v4", 50_000, 512, 0.5),
}


def burn(units: int) -> int:
    """Deterministic arithmetic kernel; identical instruction mix per call."""
    x = 0x9E3779B97F4A7C15
    for _ in range(units):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        x ^= x >> 29
    return x


def _make_token(seed: int, size: int) -> bytes:
    base = f"tok{seed:016x}".encode("ascii")
    reps = size // len(base) + 1
    return (base * reps)[:size]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Nagle stays on here, unlike in the agent. Headers and body go out in
    # separate writes, so the body waits for the client's delayed ACK, about
    # 40 ms on Linux. That wait is timer-bound and repeats closely; without it
    # a zero-work loop runs CPU-bound and its throughput follows the host's
    # speed, up to 1.7x apart between runs (see ROADMAP item 2).
    service: "MockSut" = None  # set per server instance

    def log_message(self, fmt, *args):  # keep stdout clean
        pass

    def do_GET(self):
        if self.path == "/health":
            self._reply(200, b'{"status":"ok"}')
        else:
            self._reply(404, b'{"error":"not found"}')

    def do_POST(self):
        if self.path != "/login":
            self._reply(404, b'{"error":"not found"}')
            return
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
            user, password = payload["user"], payload["pass"]
        except (ValueError, KeyError, TypeError):
            self._reply(400, b'{"error":"bad credentials format"}')
            return
        svc = self.service
        started = time.thread_time()
        seed = burn(svc.profile.cpu_work_units)
        svc.account_cpu(time.thread_time() - started)
        if svc.profile.base_latency_ms > 0:
            time.sleep(svc.profile.base_latency_ms / 1e3)
        cred_mix = zlib.crc32(f"{user}:{password}".encode("utf-8"))
        token = _make_token((seed ^ cred_mix) & _MASK64, svc.profile.payload_bytes)
        self._reply(200, b'{"token":"' + token + b'"}')

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class MockSut:
    """Threaded in-process instance of the service; stats() feeds the
    simulated container registry."""

    def __init__(self, profile: SutProfile | str, host: str = "127.0.0.1", port: int = 0):
        self.profile = PROFILES[profile] if isinstance(profile, str) else profile
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._runner = ServerThread(self._server)
        self._cpu_seconds = 0.0
        self._requests = 0
        self._lock = threading.Lock()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def account_cpu(self, seconds: float) -> None:
        with self._lock:
            self._cpu_seconds += seconds
            self._requests += 1

    def stats(self) -> tuple[int, int]:
        """(memory_bytes, cpu_usage_usec_cumulative) for the registry."""
        with self._lock:
            cpu_usec = int(self._cpu_seconds * 1e6)
        memory = BASE_MEMORY_BYTES + self.profile.payload_bytes * 1024
        return memory, cpu_usec

    def start(self) -> "MockSut":
        self._runner.start()
        return self

    def stop(self) -> None:
        self._runner.stop()


def serve(profile: SutProfile | str, bind: str = "127.0.0.1", port: int = 0) -> MockSut:
    """Start the service and return the running instance."""
    return MockSut(profile, bind, port).start()

