"""The HTTP/JSON surface of the experiment service.

:class:`ExperimentServer` is the service's app on the threaded JSON server
the fabric's daemons share (:class:`repro.fabric.httpd.JsonHttpServer`),
exposing the pod-style job lifecycle:

===========  ======================  ===========================================
Method       Path                    Meaning
===========  ======================  ===========================================
``GET``      ``/``                   service info: specs, pool size, job counts
``POST``     ``/jobs``               submit an experiment request (201 + status)
``GET``      ``/jobs``               list jobs; ``?state=RUNNING,QUEUED`` filters
``GET``      ``/jobs/{id}``          status + per-point progress
``GET``      ``/jobs/{id}/result``   full result (the CLI ``run`` JSON schema)
``DELETE``   ``/jobs/{id}``          cancel (in-flight point finishes)
===========  ======================  ===========================================

Every response is strict JSON; errors carry ``{"error": message}`` with the
obvious statuses (400 invalid request, 404 unknown job or path, 405 wrong
method, 409 result not available yet, 413 body over the server's limit).

A handler does no experiment work itself: submissions return the moment
the job is validated and queued, and all execution happens on the job
threads and the :class:`~repro.service.backend.WarmPool` behind the
manager, so status requests stay fast while the pool is saturated.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.api.registry import spec_names
from repro.experiments.reporting import jsonable
from repro.fabric.httpd import JsonApp, JsonHttpServer, Response
from repro.service.backend import WarmPool
from repro.service.jobs import JobState
from repro.service.manager import JobManager, UnknownJobError
from repro.service.requests import ValidationError


class ExperimentServer(JsonApp):
    """The service's routes over one :class:`JobManager` (the app behind
    ``repro-ssle serve``)."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager

    def handle(self, method: str, path: str,
               body: Optional[Dict[str, object]]) -> Response:
        """Dispatch one request; the payload is sanitised to strict JSON."""
        status, payload = self._route(method, path, body)
        return status, jsonable(payload)

    # ------------------------------------------------------------------ #
    # Routing (every operation is a table lookup or a queue insertion; the
    # job threads do the actual work elsewhere)
    # ------------------------------------------------------------------ #
    def _route(self, method: str, target: str,
               body: Optional[Dict[str, object]]) -> Response:
        url = urlsplit(target)
        segments = [part for part in url.path.split("/") if part]
        try:
            if not segments:
                return self._route_root(method)
            if segments[0] != "jobs" or len(segments) > 3:
                return 404, {"error": f"unknown path {url.path!r}"}
            if len(segments) == 1:
                return self._route_jobs(method, url.query, body)
            if len(segments) == 2:
                return self._route_job(method, segments[1])
            if segments[2] != "result":
                return 404, {"error": f"unknown path {url.path!r}"}
            return self._route_result(method, segments[1])
        except UnknownJobError as error:
            return 404, {"error": str(error.args[0])}
        except ValidationError as error:
            return 400, {"error": str(error)}

    def _route_root(self, method: str) -> Response:
        if method != "GET":
            return 405, {"error": "the service root only supports GET"}
        jobs = self.manager.jobs()
        return 200, {
            "service": "repro-ssle experiment service",
            "endpoints": ["POST /jobs", "GET /jobs", "GET /jobs/{id}",
                          "GET /jobs/{id}/result", "DELETE /jobs/{id}"],
            "protocols": spec_names(),
            "states": list(JobState.ALL),
            "pool_workers": self.manager.backend.workers,
            "store": (self.manager.store.stats()
                      if self.manager.store is not None else None),
            "jobs": {state: sum(1 for job in jobs if job.state == state)
                     for state in JobState.ALL},
        }

    def _route_jobs(self, method: str, query: str,
                    body: Optional[Dict[str, object]]) -> Response:
        if method == "POST":
            return 201, self.manager.submit(body).status()
        if method == "GET":
            states = None
            raw = parse_qs(query).get("state")
            if raw:
                states = [name.strip().upper()
                          for entry in raw for name in entry.split(",")
                          if name.strip()]
                try:
                    jobs = self.manager.jobs(states)
                except ValueError as error:
                    return 400, {"error": str(error)}
            else:
                jobs = self.manager.jobs()
            return 200, {"jobs": [job.summary() for job in jobs],
                         "states": states}
        return 405, {"error": "/jobs supports POST (submit) and GET (list)"}

    def _route_job(self, method: str, job_id: str) -> Response:
        if method == "GET":
            return 200, self.manager.get(job_id).status()
        if method == "DELETE":
            return 200, self.manager.cancel(job_id).status()
        return 405, {"error": "/jobs/{id} supports GET (status) and "
                              "DELETE (cancel)"}

    def _route_result(self, method: str, job_id: str) -> Response:
        if method != "GET":
            return 405, {"error": "/jobs/{id}/result supports GET only"}
        job = self.manager.get(job_id)
        if job.result is None:
            return 409, {"error": f"job {job_id} has no result (state: "
                                  f"{job.state})",
                         "state": job.state}
        return 200, job.result


def serve(host: str = "127.0.0.1", port: int = 8642,
          workers: Optional[int] = None, store=None,
          max_jobs: Optional[int] = None,
          announce: Optional[Callable[[str], None]] = None) -> None:
    """Run the service until interrupted (the ``repro-ssle serve`` body).

    Builds the warm pool (created *now*, so the first job pays no fork
    cost), the manager, and the server, then serves on the calling thread;
    ``announce`` is told the bound address. On the way out (``^C`` raises
    :class:`KeyboardInterrupt` here) running jobs are cancelled — each
    finishes its in-flight point first — and the pool is shut down.
    """
    backend = WarmPool(workers=workers).warm()
    manager = JobManager(backend=backend, store=store, max_jobs=max_jobs)
    try:
        server = JsonHttpServer(ExperimentServer(manager), host, port)
        try:
            if announce is not None:
                announce(f"serving on {server.url} "
                         f"(pool: {backend.workers} worker(s), store: "
                         f"{store.root if store is not None else 'off'})")
            server.serve_forever()
        finally:
            server.close()
    finally:
        manager.close()
        backend.close()
