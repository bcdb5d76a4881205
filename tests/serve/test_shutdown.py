"""Graceful-shutdown tests: draining completes in-flight work."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.serve import ServeError, WorkerPool
from repro.serve.protocol import request_to_wire

from tests.serve.test_server import slow_counting_execute


class TestDrain:
    def test_in_flight_request_completes_during_drain(
        self, live_server, tiny_request
    ) -> None:
        execute = slow_counting_execute(delay=0.8)
        server = live_server(
            pool=WorkerPool(workers=2, kind="thread", execute=execute)
        )
        wire = request_to_wire(tiny_request)
        result = {}

        def submit() -> None:
            try:
                result["response"] = server.client().explore_wire(wire)
            except Exception as exc:
                result["error"] = exc

        thread = threading.Thread(target=submit)
        thread.start()
        # wait until the request is actually inside the pool
        deadline = time.monotonic() + 5
        while execute.state["calls"] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert execute.state["calls"] == 1
        future = server.begin_shutdown(drain=True, timeout=30)
        thread.join(timeout=30)
        future.result(timeout=30)
        server.finish_shutdown()
        assert "error" not in result, result.get("error")
        assert result["response"]["report"]["tag"] == 1
        assert server.server.draining

    def test_new_connections_refused_after_drain(
        self, live_server, tiny_request
    ) -> None:
        server = live_server()
        port = server.port
        server.stop(drain=True)
        with pytest.raises(ServeError) as excinfo:
            server.client(timeout=2).explore_wire(request_to_wire(tiny_request))
        assert excinfo.value.status == 0  # transport-level: listener gone

    def test_kept_alive_connection_gets_503_while_draining(
        self, live_server, tiny_request
    ) -> None:
        execute = slow_counting_execute(delay=0.0)
        server = live_server(
            pool=WorkerPool(workers=1, kind="thread", execute=execute)
        )
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            import json

            body = json.dumps(request_to_wire(tiny_request)).encode()
            head = (
                f"POST /v1/explore HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            sock.sendall(head + body)
            first = _read_http_response(sock)
            assert b"200 OK" in first
            future = server.begin_shutdown(drain=True, timeout=10)
            deadline = time.monotonic() + 5
            while not server.server.draining and time.monotonic() < deadline:
                time.sleep(0.02)
            sock.sendall(head + body)
            second = _read_http_response(sock)
            assert b"503" in second
            assert b"draining" in second
            future.result(timeout=30)
            server.finish_shutdown()
        finally:
            sock.close()

    def test_idle_kept_alive_connection_does_not_hold_the_drain(
        self, live_server
    ) -> None:
        import http.client

        server = live_server()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open, waiting
            start = time.monotonic()
            future = server.begin_shutdown(drain=True, timeout=None)
            future.result(timeout=5)
            assert time.monotonic() - start < 5
            server.finish_shutdown()
        finally:
            conn.close()

    def test_draining_gauge_flips(self, live_server) -> None:
        server = live_server()
        assert server.client().metrics()["serve_draining"] == 0
        server.stop(drain=True)
        assert server.server.draining


def _read_http_response(sock: socket.socket) -> bytes:
    """Read one HTTP response (headers + Content-Length body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            return data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest
