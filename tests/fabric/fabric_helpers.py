"""Shared fixtures and fault injectors for the fabric suite.

The helpers here are the suite's chaos toolkit: a scripted raw-bytes HTTP
server (exact 500s/truncated bodies on demand), a TCP fault proxy that
drops a seeded fraction of responses, and instant-fire retry policies so
no test sleeps through real backoff.
"""

from __future__ import annotations

import random
import re
import socket
import threading
from typing import List, Optional, Sequence

from repro.api.executor import TrialResult
from repro.fabric.retry import RetryPolicy


def fast_policy_factory() -> RetryPolicy:
    """Real retry counts, negligible delays — tests never sleep noticeably."""
    return RetryPolicy(retries=3, base_delay=0.001, max_delay=0.002,
                       timeout=5.0)


def make_trials(count: int, steps_base: int = 100) -> List[TrialResult]:
    """A valid contiguous trial prefix (the store's record invariant)."""
    return [
        TrialResult(trial=index, steps=steps_base + index, converged=True,
                    wall_time=0.25, engine="step", protocol_name="P")
        for index in range(count)
    ]


META = {"spec": "angluin-modk", "population_size": 4, "family": "adversarial",
        "rng_label": "angluin", "config": {}}


def http_bytes(status: int, body: bytes, *,
               advertised_length: Optional[int] = None) -> bytes:
    """One canned HTTP/1.1 response. ``advertised_length`` larger than the
    actual body simulates a truncated transfer (the connection closes with
    bytes still owed)."""
    length = len(body) if advertised_length is None else advertised_length
    head = (f"HTTP/1.1 {status} canned\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")
    return head + body


class ScriptedServer:
    """Serve one canned raw response per connection, in script order.

    ``None`` entries close the connection without responding (a dropped
    response). After the script runs out, further connections are refused
    by closing the listener.
    """

    def __init__(self, scripts: Sequence[Optional[bytes]]) -> None:
        self._scripts = list(scripts)
        self.requests: List[bytes] = []
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for script in self._scripts:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            try:
                connection.settimeout(5.0)
                self.requests.append(_read_http_message(connection))
                if script is not None:
                    connection.sendall(script)
            except OSError:
                pass
            finally:
                connection.close()
        self._listener.close()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def _read_http_message(connection: socket.socket) -> bytes:
    """Read one full HTTP request/response (headers + Content-Length body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = connection.recv(1 << 16)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(rb"content-length:\s*(\d+)", head, re.IGNORECASE)
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = connection.recv(1 << 16)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


class FaultProxy:
    """A TCP proxy that drops a seeded fraction of upstream responses.

    A dropped response closes the client connection after the request was
    forwarded — the worst case for an at-most-once protocol, because the
    server-side effect happened and the client cannot know. The fabric
    tolerates this by design (idempotent claims, never-shrink merges,
    stale-complete acknowledgements), which is exactly what the chaos test
    asserts.
    """

    def __init__(self, upstream_port: int, drop_rate: float = 0.1,
                 seed: int = 20230713) -> None:
        self.upstream_port = upstream_port
        self.drop_rate = drop_rate
        self.dropped = 0
        self.forwarded = 0
        self._rng = random.Random(seed)
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(connection,),
                             daemon=True).start()

    def _handle(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(10.0)
            request = _read_http_message(connection)
            if not request:
                return
            upstream = socket.create_connection(
                ("127.0.0.1", self.upstream_port), timeout=10.0)
            try:
                upstream.sendall(request)
                response = _read_http_message(upstream)
            finally:
                upstream.close()
            if self._rng.random() < self.drop_rate:
                self.dropped += 1
                return  # response vanishes; the client sees a closed socket
            self.forwarded += 1
            connection.sendall(response)
        except OSError:
            pass
        finally:
            connection.close()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
