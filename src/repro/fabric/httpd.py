"""Minimal threaded JSON-over-HTTP server shared by the repo's three daemons.

The experiment service, the store server and the coordinator have one
shape: short blocking handlers over a table guarded by a mutex or a file
lock, with any long work (a job's points on the warm pool) running on
threads of their own. ``ThreadingHTTPServer`` fits that exactly and keeps
each daemon's HTTP side a few lines.

An *app* is anything with ``handle(method, path, body) -> (status, payload)``
and an optional ``max_body_bytes`` attribute. The server owns everything
HTTP: request parsing, body-size limits, JSON encoding, and turning handler
exceptions into 500s (which clients treat as retryable). A body it refuses
(a malformed or negative ``Content-Length`` is a 400, any
``Transfer-Encoding`` a 411, an oversized body a 413, undecodable JSON a
400, a body that stalls for :data:`SOCKET_TIMEOUT_S` a 408) also ends the
connection: its unread bytes must never be parsed as further requests.
Every socket operation of a connection times out after
:data:`SOCKET_TIMEOUT_S`, so a stalled or idle peer cannot hold a handler
thread; the repo's clients open one connection per attempt and send each
request whole.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

__all__ = ["JsonApp", "JsonHttpServer"]

Response = Tuple[int, Dict[str, object]]

#: Seconds any one read or write on a connection may block before the
#: server gives the connection up.
SOCKET_TIMEOUT_S = 30.0


class JsonApp:
    """Protocol stub: what :class:`JsonHttpServer` expects of an app."""

    #: Largest request body accepted, in bytes.
    max_body_bytes: int = 1 << 20

    def handle(self, method: str, path: str,
               body: Optional[Dict[str, object]]) -> Response:
        raise NotImplementedError


def _make_handler(app: JsonApp) -> type:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-fabric"
        timeout = SOCKET_TIMEOUT_S

        def log_message(self, format: str, *args: object) -> None:
            pass  # daemons announce themselves once; per-request noise helps no one

        def _respond(self, status: int, payload: Dict[str, object],
                     close: bool = False) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if close:
                # Also ends this handler's keep-alive loop.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)

        def _read_body(self) -> Optional[Dict[str, object]]:
            if "Transfer-Encoding" in self.headers:
                # Unframed, its chunks would be parsed as further requests.
                raise _BodyError(411, "Transfer-Encoding is not supported; "
                                      "send a Content-Length")
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1  # refused below, as a negative length is
            if length < 0:
                raise _BodyError(400, f"invalid Content-Length {header!r}")
            if length == 0:
                return None
            if length > app.max_body_bytes:
                raise _BodyError(
                    413, f"request body too large ({length} bytes; limit "
                         f"{app.max_body_bytes})")
            try:
                raw = self.rfile.read(length)
            except TimeoutError:
                raise _BodyError(408, "request body timed out") from None
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise _BodyError(400, "request body is not valid JSON") from None
            if not isinstance(payload, dict):
                raise _BodyError(400, "request body must be a JSON object")
            return payload

        def _dispatch(self, method: str) -> None:
            try:
                body = self._read_body()
            except _BodyError as error:
                self._respond(error.status, {"error": str(error)}, close=True)
                return
            try:
                status, payload = app.handle(method, self.path, body)
            except Exception as error:  # noqa: BLE001 -- 500s are retryable
                self._respond(500, {"error": f"{type(error).__name__}: {error}"})
                return
            self._respond(status, payload)

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_PUT(self) -> None:
            self._dispatch("PUT")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def do_DELETE(self) -> None:
            self._dispatch("DELETE")

    return Handler


class _BodyError(ValueError):
    """A request body the handler refuses, with the status it answers."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class JsonHttpServer:
    """A threaded HTTP server bound at construction (ephemeral port OK)."""

    def __init__(self, app: JsonApp, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self._server = ThreadingHTTPServer((host, port), _make_handler(app))
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JsonHttpServer":
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self._server.serve_forever,
                                  name=f"fabric-httpd-{self.port}",
                                  daemon=True)
        thread.start()
        self._thread = thread
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (CLI daemons)."""
        self._server.serve_forever()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
