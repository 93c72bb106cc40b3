"""HTTP/JSON transport with the fabric's retry policy baked in.

One function, :func:`request_json`, covers every remote call the fabric
and the experiment service's client make: it opens a fresh ``http.client``
connection per attempt (a dead keep-alive socket is exactly the failure we
are defending against), applies the policy's per-attempt timeout, and
retries on connection errors, 5xx responses, and bodies that fail to decode
as JSON (a truncated response from a dying server looks like the latter).
4xx responses are *not* retried — they are the server telling us the
request itself is wrong.

On exhaustion the behavior splits: if the last attempt produced *any* HTTP
response (even a 500 or garbage body) the ``(status, payload)`` pair is
returned and the caller decides; if no attempt ever got a response,
:class:`TransportError` is raised. That split is what lets
:class:`repro.fabric.remote.RemoteStore` distinguish "server said no"
(treat as miss) from "server unreachable" (degrade and recompute).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Callable, Dict, Optional, Tuple

from repro.fabric.retry import RetryPolicy

__all__ = ["TransportError", "parse_http_url", "request_json"]

DEFAULT_POLICY = RetryPolicy()


class TransportError(ConnectionError):
    """No attempt produced an HTTP response (refused, timed out, reset)."""


def parse_http_url(url: str, default_port: int = 80) -> Tuple[str, int]:
    """Split ``http://host[:port][/]`` into ``(host, port)``.

    Only plain ``http`` is supported — the service and the fabric are
    trusted-network tools (a CI matrix, a lab cluster), not internet-facing
    services.
    """
    prefix = "http://"
    if url.startswith("https://"):
        raise ValueError(
            f"unsupported URL {url!r}: the service and the fabric speak "
            "plain http:// only (run them inside a trusted network)")
    if not url.startswith(prefix):
        raise ValueError(
            f"expected an http:// URL, got {url!r}")
    rest = url[len(prefix):].strip("/")
    if not rest or "/" in rest:
        raise ValueError(
            f"expected http://host[:port] with no path, got {url!r}")
    host, _, port_text = rest.partition(":")
    if not host:
        raise ValueError(f"missing host in URL {url!r}")
    if not port_text:
        return host, default_port
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in URL {url!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in URL {url!r}")
    return host, port


class _RetryableResponse(Exception):
    """Internal: an HTTP response worth retrying (5xx or undecodable body)."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__(status)
        self.status = status
        self.payload = payload


def _attempt(host: str, port: int, method: str, path: str,
             body: Optional[bytes], timeout: float,
             ) -> Tuple[int, Dict[str, object]]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        status = response.status
    finally:
        connection.close()
    try:
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            payload = {"value": payload}
    except (ValueError, UnicodeDecodeError):
        # A truncated or garbled body: the server (or something between us
        # and it) is unwell. Retryable regardless of the status line.
        raise _RetryableResponse(
            status, {"error": f"undecodable response body ({len(raw)} bytes)"}
        ) from None
    if status >= 500:
        raise _RetryableResponse(status, payload)
    return status, payload


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, object]] = None,
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[int, Dict[str, object]]:
    """One JSON request/response exchange under the retry policy.

    Returns ``(status, payload)``. Raises :class:`TransportError` only when
    every attempt failed at the connection level; a 5xx or garbled body that
    persists through all retries is *returned* (last status wins) so the
    caller can degrade deliberately.
    """
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    last_response: Optional[_RetryableResponse] = None
    last_error: Optional[Exception] = None
    for attempt in range(1, policy.attempts + 1):
        try:
            return _attempt(host, port, method, path, body, policy.timeout)
        except _RetryableResponse as response:
            last_response, last_error = response, None
        except (OSError, http.client.HTTPException) as error:
            last_error, last_response = error, None
        if attempt < policy.attempts:
            sleep(policy.backoff(attempt))
    if last_response is not None:
        return last_response.status, last_response.payload
    raise TransportError(
        f"{method} http://{host}:{port}{path} failed after "
        f"{policy.attempts} attempt(s): {last_error}") from last_error
