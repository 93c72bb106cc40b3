"""ServiceClient transport retries: flaky services stop failing scripts.

The client sends every request through the fabric's ``request_json``, so
these tests serve a scripted app on the real threaded server and count the
requests that reach it; refused connections come from a patched
``socket.create_connection``.  Backoff delays are shrunk on the client's
policy, so no test sleeps noticeably while attempt counts stay real.
"""

from __future__ import annotations

import socket
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.fabric.httpd import JsonApp, JsonHttpServer
from repro.fabric.retry import RetryPolicy
from repro.fabric.transport import TransportError
from repro.service.client import ServiceClient, ServiceError


class ScriptedApp(JsonApp):
    """Answer with scripted ``(status, payload)`` pairs, in order; record
    every request that arrives."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def handle(self, method, path, body):
        self.calls.append((method, path, body))
        return self.outcomes.pop(0)


def fast(client: ServiceClient) -> ServiceClient:
    client.policy = replace(client.policy, base_delay=0.001, max_delay=0.002)
    return client


@contextmanager
def scripted(outcomes, retries=3):
    app = ScriptedApp(outcomes)
    server = JsonHttpServer(app).start()
    try:
        yield fast(ServiceClient(server.url, retries=retries)), app
    finally:
        server.close()


@pytest.fixture
def connects(monkeypatch):
    """Counts outgoing connections; the first ``refuse`` are refused."""
    real = socket.create_connection
    state = {"count": 0, "refuse": 0}

    def create_connection(*args, **kwargs):
        state["count"] += 1
        if state["count"] <= state["refuse"]:
            raise ConnectionRefusedError("not up yet")
        return real(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return state


def test_policy_mirrors_ctor_arguments():
    client = ServiceClient("http://127.0.0.1:8642", timeout=7.0, retries=2)
    assert client.policy == RetryPolicy(retries=2, timeout=7.0)
    assert (client.host, client.port) == ("127.0.0.1", 8642)
    assert ServiceClient("http://svc").port == 8642


def test_connection_errors_retry_then_succeed(connects):
    connects["refuse"] = 2
    with scripted([(200, {"service": "repro-experiments"})]) as (client,
                                                                 app):
        assert client.info() == {"service": "repro-experiments"}
    assert connects["count"] == 3
    assert len(app.calls) == 1


def test_5xx_retries_then_succeeds():
    with scripted([(503, {"error": "overloaded"}),
                   (200, {"jobs": []})]) as (client, app):
        assert client.jobs() == []
    assert len(app.calls) == 2


def test_persistent_5xx_surfaces_as_service_error():
    with scripted([(500, {"error": "melted"})] * 4) as (client, app):
        with pytest.raises(ServiceError) as excinfo:
            client.info()
    assert excinfo.value.status == 500
    assert len(app.calls) == client.policy.attempts == 4


def test_exhaustion_raises_a_chained_connection_error(connects):
    connects["refuse"] = 99
    with scripted([]) as (client, _app):
        with pytest.raises(TransportError) as excinfo:
            client.info()
    assert isinstance(excinfo.value, ConnectionError)
    assert isinstance(excinfo.value.__cause__, ConnectionRefusedError)
    assert connects["count"] == client.policy.attempts == 4


def test_4xx_never_retries():
    with scripted([(404, {"error": "no such job"})]) as (client, app):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-0001")
    assert excinfo.value.status == 404
    assert app.calls == [("GET", "/jobs/job-0001", None)]


def test_retries_zero_opts_out(connects):
    connects["refuse"] = 99
    with scripted([], retries=0) as (client, _app):
        with pytest.raises(TransportError):
            client.info()
    assert connects["count"] == 1


def test_submit_retries_send_identical_bodies():
    """The documented duplicate-submit caveat: a retried POST re-sends the
    same body, so the duplicate job is identical (and its trials are
    served from the store)."""
    with scripted([(503, {"error": "overloaded"}),
                   (201, {"id": "job-0002", "state": "QUEUED"})]) as (
            client, app):
        client.submit({"protocol": "ppl", "sizes": [8]})
    bodies = [body for _method, _path, body in app.calls]
    assert bodies == [{"protocol": "ppl", "sizes": [8]}] * 2
