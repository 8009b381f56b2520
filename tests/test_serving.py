"""Both servers stop at once; the agent sends replies without Nagle's delay."""

import socket
import time

import pytest
import requests

from wattbench import agent
from wattbench.agent import AgentClient, AgentServer
from wattbench.mocksut import MockSut


def _mock_sut(tmp_path):
    sut = MockSut("v1").start()
    return sut, ("127.0.0.1", sut.port), lambda: requests.get(sut.base_url + "/health", timeout=5)


def _agent(tmp_path):
    server = AgentServer(spool_dir=str(tmp_path / "spool")).start()
    return server, server.address, lambda: AgentClient(*server.address).health()


SERVERS = [pytest.param(_mock_sut, id="mocksut"), pytest.param(_agent, id="agent")]


@pytest.mark.parametrize("make", SERVERS)
def test_stop_returns_at_once_and_closes_the_port(make, tmp_path):
    server, address, request = make(tmp_path)
    request()
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.1
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5).close()


def test_agent_accepted_socket_has_nodelay(tmp_path, monkeypatch):
    handler = agent._Handler
    seen = []
    original_setup = handler.setup

    def setup(self):
        original_setup(self)
        seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(handler, "setup", setup)
    server, _, request = _agent(tmp_path)
    try:
        request()
    finally:
        server.stop()
    assert seen and all(seen)


def test_stop_before_start_and_twice(tmp_path):
    sut = MockSut("v1")
    sut.stop()
    sut = MockSut("v1").start()
    sut.stop()
    sut.stop()
