"""Serve a socketserver server on a thread and stop it without a poll.

``serve_forever`` checks its shutdown flag every ``poll_interval`` (0.5 s),
so every ``shutdown()`` waits up to half a second. Here the loop blocks in
``select`` with no timeout, and ``stop`` wakes it by shutting the listening
socket down: on Linux that makes the socket readable for good and every
further ``accept`` fail, so the loop sees the stop flag on its next turn.
"""

from __future__ import annotations

import socket
import socketserver
import threading


class ServerThread:
    """Runs ``server.handle_request()`` on a daemon thread until stopped."""

    def __init__(self, server: socketserver.BaseServer):
        self._server = server
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while not self._stopping.is_set():
            self._server.handle_request()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        # the flag goes first: a shut-down socket stays readable, so a loop
        # that found the flag clear would spin on failing accepts
        self._stopping.set()
        try:
            self._server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._thread.is_alive():
            self._thread.join(timeout=5)
        self._server.server_close()
