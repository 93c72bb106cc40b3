"""The HTTP surface: routing rules, and the full lifecycle over a socket.

Routing tests hit :meth:`ExperimentServer.handle` directly (no sockets):
the status codes and error shapes are part of the API contract.  The
end-to-end tests serve the app on the threaded :class:`JsonHttpServer` on an
ephemeral port and drive it with the stdlib :class:`ServiceClient` and the
raw transport — exactly the deployment shape, including the store-backed
resubmission that must report zero executed trials.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.fabric.httpd import JsonHttpServer
from repro.fabric.retry import RetryPolicy
from repro.fabric.transport import request_json
from repro.service.backend import WarmPool
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ExperimentServer
from repro.service.jobs import JobState
from repro.service.manager import JobManager
from repro.store import ResultsStore

PAYLOAD = {"protocol": "fischer-jiang", "sizes": [6, 8], "trials": 2,
           "max_steps": 400_000, "seed": 23}

#: Bound on every wait for another thread in these tests.
TIMEOUT = 60.0


class GatedPool(WarmPool):
    """Holds every point until the gate opens."""

    def __init__(self):
        super().__init__(workers=0)
        self.gate = threading.Event()

    def run_point(self, tasks, store=None, on_result=None):
        assert self.gate.wait(TIMEOUT), "the gate never opened"
        return super().run_point(tasks, store, on_result)


# ---------------------------------------------------------------------- #
# Routing
# ---------------------------------------------------------------------- #
ERROR_STATUSES = [
    ("GET", "/nope", 404, "unknown path"),
    ("GET", "/jobs/job-0001/result/extra", 404, "unknown path"),
    ("GET", "/jobs/job-0001/nonsense", 404, "unknown path"),
    ("GET", "/jobs/job-9999", 404, "no job"),
    ("DELETE", "/jobs/job-9999", 404, "no job"),
    ("PUT", "/", 405, "GET"),
    ("DELETE", "/jobs", 405, "POST"),
    ("POST", "/jobs/job-0001", 405, "GET"),
    ("POST", "/jobs/job-0001/result", 405, "GET"),
    ("GET", "/jobs?state=SLEEPING", 400, "unknown job state"),
]


def routed(method, target, body=None):
    return ExperimentServer(JobManager()).handle(method, target, body)


@pytest.mark.parametrize("method,target,status,fragment", ERROR_STATUSES)
def test_error_statuses(method, target, status, fragment):
    code, payload = routed(method, target)
    assert code == status
    assert fragment in payload["error"]


def test_root_reports_service_shape():
    status, payload = routed("GET", "/")
    assert status == 200
    assert "fischer-jiang" in payload["protocols"]
    assert payload["states"] == list(JobState.ALL)
    assert payload["jobs"] == {state: 0 for state in JobState.ALL}
    assert payload["store"] is None


def test_submit_then_status_then_result_via_route():
    pool = GatedPool()
    server = ExperimentServer(JobManager(backend=pool))
    status, created = server.handle("POST", "/jobs", PAYLOAD)
    assert status == 201
    job_id = created["id"]
    # The result is a 409 until the job finishes.
    early, conflict = server.handle("GET", f"/jobs/{job_id}/result", None)
    assert early == 409 and conflict["state"] in (JobState.QUEUED,
                                                  JobState.RUNNING)
    pool.gate.set()
    server.manager.drain()
    done, final = server.handle("GET", f"/jobs/{job_id}", None)
    got, result = server.handle("GET", f"/jobs/{job_id}/result", None)
    listed, rows = server.handle("GET", "/jobs?state=DONE,FAILED", None)
    assert done == 200 and final["state"] == JobState.DONE
    assert final["progress"]["trials_executed"] == 4
    assert got == 200 and result["command"] == "run"
    assert listed == 200 and [row["state"] for row in rows["jobs"]] == ["DONE"]


def test_delete_cancels_via_route():
    # Gated, so the job cannot finish before the DELETE arrives.
    pool = GatedPool()
    server = ExperimentServer(JobManager(backend=pool))
    _, created = server.handle("POST", "/jobs", PAYLOAD)
    status, payload = server.handle("DELETE", f"/jobs/{created['id']}", None)
    pool.gate.set()
    server.manager.drain()
    assert status == 200 and payload["cancel_requested"] is True
    assert server.manager.get(created["id"]).terminal


# ---------------------------------------------------------------------- #
# End to end over a real socket
# ---------------------------------------------------------------------- #
@contextmanager
def live_service(store=None, backend=None):
    """A served :class:`ExperimentServer` on an ephemeral port."""
    manager = JobManager(backend=backend, store=store)
    server = JsonHttpServer(ExperimentServer(manager)).start()
    try:
        yield server
    finally:
        server.close()
        manager.close()


def test_full_lifecycle_over_http(tmp_path):
    with live_service(ResultsStore(tmp_path)) as server:
        client = ServiceClient(server.url)
        info = client.info()
        job = client.submit(PAYLOAD)
        status = client.wait(job["id"], timeout=120)
        result = client.result(job["id"])
        repeat = client.submit(PAYLOAD)
        repeat_status = client.wait(repeat["id"], timeout=120)
        repeat_result = client.result(repeat["id"])
        jobs = client.jobs(states=[JobState.DONE])
    assert info["service"].startswith("repro-ssle")
    assert status["state"] == JobState.DONE
    assert status["progress"]["trials_executed"] == 4
    # The resubmission is served entirely from the store: zero executions,
    # and the result payload (wall_time aside) is byte-for-byte the same.
    assert repeat_status["progress"]["trials_executed"] == 0
    assert repeat_status["progress"]["trials_served"] == 4
    assert repeat_result["store"]["executed"] == 0
    for entry, again in zip(result["results"], repeat_result["results"]):
        assert {key: value for key, value in entry.items()
                if key != "wall_time"} \
            == {key: value for key, value in again.items()
                if key != "wall_time"}
    assert len(jobs) == 2


def test_every_status_over_the_wire():
    """The README table's statuses, on the wire: 200, 201, 400, 404, 405
    and 409, plus ``?state=`` filtering."""
    pool = GatedPool()
    once = RetryPolicy(retries=0)
    with live_service(backend=pool) as server:
        def call(method, path, body=None):
            return request_json("127.0.0.1", server.port, method, path,
                                body, policy=once)

        for method, target, status, fragment in ERROR_STATUSES:
            code, payload = call(method, target)
            assert (code, fragment in payload["error"]) == (status, True), \
                (method, target, payload)
        created, job = call("POST", "/jobs", PAYLOAD)
        assert created == 201 and job["state"] in (JobState.QUEUED,
                                                   JobState.RUNNING)
        assert call("POST", "/jobs", {"protocol": "no-such"})[0] == 400
        assert call("GET", f"/jobs/{job['id']}/result")[0] == 409
        assert call("GET", "/jobs?state=DONE") == (
            200, {"jobs": [], "states": ["DONE"]})
        pool.gate.set()
        server.app.manager.drain()
        code, listed = call("GET", "/jobs?state=done")
        assert code == 200 and [row["id"] for row in listed["jobs"]] \
            == [job["id"]]
        assert call("GET", f"/jobs/{job['id']}/result")[0] == 200
        assert call("DELETE", f"/jobs/{job['id']}")[0] == 200


def strict_json(raw: bytes):
    """Parse ``raw`` refusing ``NaN``, ``Infinity`` and ``-Infinity``."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(raw, parse_constant=refuse)


def post_raw(url: str, data: bytes):
    """``POST /jobs`` with raw body bytes; ``(status, strict JSON body)``."""
    request = urllib.request.Request(f"{url}/jobs", data=data,
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT) as response:
            return response.status, strict_json(response.read())
    except urllib.error.HTTPError as error:
        return error.code, strict_json(error.read())


def test_submit_rejects_malformed_json_and_bad_requests():
    with live_service() as server:
        refused = {name: post_raw(server.url, data) for name, data in (
            ("malformed", b"{not json"),
            ("not-an-object", b"[1, 2]"),
            ("empty", b""),
            ("unknown-protocol", json.dumps({"protocol": "no-such"}).encode()),
        )}
    assert {name: status for name, (status, _) in refused.items()} \
        == dict.fromkeys(refused, 400)
    assert "not valid JSON" in refused["malformed"][1]["error"]
    assert "JSON object" in refused["not-an-object"][1]["error"]
    assert "JSON object" in refused["empty"][1]["error"]
    assert "no-such" in refused["unknown-protocol"][1]["error"]


def test_bodies_on_the_wire_are_strict_json():
    """A job whose trials never converge has non-finite means; the raw
    response bytes carry them as ``null`` and parse as strict JSON."""
    with live_service() as server:
        created = ServiceClient(server.url).submit(
            {**PAYLOAD, "sizes": [8], "max_steps": 1})
        server.app.manager.drain()
        with urllib.request.urlopen(
                f"{server.url}/jobs/{created['id']}/result",
                timeout=TIMEOUT) as response:
            result = strict_json(response.read())
    assert result["results"][0]["all_converged"] is False
    assert result["results"][0]["mean_steps"] is None


def test_http_errors_reach_the_client_as_service_errors():
    errors = {}
    with live_service() as server:
        client = ServiceClient(server.url)
        for name, call in (
            ("missing", lambda: client.status("job-9999")),
            ("invalid", lambda: client.submit({"protocol": "no-such"})),
        ):
            try:
                call()
            except ServiceError as error:
                errors[name] = error
    assert errors["missing"].status == 404
    assert errors["invalid"].status == 400
    assert "no-such" in str(errors["invalid"])


def test_client_rejects_non_http_urls():
    # The fabric clients' http://host[:port] form: no other scheme, no
    # bare host:port, no path.
    for url in ("ftp://example.test", "127.0.0.1:8642",
                "http://127.0.0.1:8642/api"):
        with pytest.raises(ValueError, match="http://"):
            ServiceClient(url)
