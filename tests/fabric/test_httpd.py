"""How the shared JSON server refuses bad request bodies, over a raw socket.

``http.client`` never sends these requests, so each test writes its bytes
by hand against a live coordinator app and reads until the server closes
the connection: a refused body must get exactly one JSON answer, and its
unread bytes must never be parsed as another request.
"""

from __future__ import annotations

import json
import socket
import time
from typing import List, Tuple

import pytest

from repro.fabric import httpd
from repro.fabric.coordinator import Coordinator
from repro.fabric.coordinator_server import CoordinatorApp
from repro.fabric.httpd import JsonHttpServer

#: A request smuggled inside a body: a server that reads past a refused
#: body answers it too.
HIDDEN = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture
def server():
    instance = JsonHttpServer(CoordinatorApp(Coordinator())).start()
    try:
        yield instance
    finally:
        instance.close()


def exchange(server: JsonHttpServer, raw: bytes) -> bytes:
    """Send ``raw``, then read until the server closes (5 s at most)."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=5.0) as connection:
        connection.sendall(raw)
        received = b""
        while True:
            try:
                chunk = connection.recv(1 << 16)
            except ConnectionResetError:
                break  # closed with the refused body still unread
            if not chunk:
                break
            received += chunk
    return received


def responses(received: bytes) -> List[Tuple[int, dict]]:
    """Split a stream of HTTP/1.1 responses into ``(status, json body)``."""
    parsed = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                      if line.lower().startswith("content-length:"))
        parsed.append((status, json.loads(rest[:length])))
        received = rest[length:]
    return parsed


def post_claim(content_length: str, body: bytes = b"") -> bytes:
    return (f"POST /claim HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode() + body


def test_non_numeric_content_length_is_a_400(server):
    [(status, payload)] = responses(exchange(server, post_claim("ten")))
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_negative_content_length_is_a_400_not_a_hang(server):
    [(status, payload)] = responses(exchange(server, post_claim("-1")))
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_oversized_body_is_a_413_and_ends_the_connection(server):
    declared = str(CoordinatorApp.max_body_bytes * 2)
    received = exchange(server, post_claim(declared, HIDDEN))
    [(status, payload)] = responses(received)
    assert status == 413
    assert "too large" in payload["error"]


def test_undecodable_body_ends_the_connection(server):
    body = b"{not json" + HIDDEN
    [(status, payload)] = responses(
        exchange(server, post_claim("9", body)))
    assert status == 400
    assert "not valid JSON" in payload["error"]


def test_good_requests_keep_the_connection_alive(server):
    """The refusals above close the connection; a well-formed exchange
    still serves several requests on one socket."""
    raw = (b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
           b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
    assert responses(exchange(server, raw)) == [(200, {"ok": True}),
                                                (200, {"ok": True})]


def test_chunked_body_is_a_411_and_ends_the_connection(server):
    """A chunked body is refused whole: the request it carries must not
    be answered as a second request on the same connection."""
    chunked = (b"POST /workers HTTP/1.1\r\nHost: x\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               + f"{len(HIDDEN):x}\r\n".encode() + HIDDEN + b"\r\n0\r\n\r\n")
    received = exchange(server, chunked)
    assert received.startswith(b"HTTP/1.1 411 "), received
    [(status, payload)] = responses(received)
    assert status == 411
    assert "Transfer-Encoding" in payload["error"]


def test_stalled_body_times_out_and_frees_the_connection(monkeypatch):
    """A peer that declares 100 bytes and sends 5 is answered 408 and
    dropped once the socket timeout passes, not held until it leaves."""
    monkeypatch.setattr(httpd, "SOCKET_TIMEOUT_S", 0.2)
    instance = JsonHttpServer(CoordinatorApp(Coordinator())).start()
    try:
        started = time.monotonic()
        [(status, payload)] = responses(
            exchange(instance, post_claim("100", b'{"a":')))
        assert time.monotonic() - started < 4.0
    finally:
        instance.close()
    assert status == 408
    assert "timed out" in payload["error"]
