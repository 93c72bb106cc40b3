"""A thin stdlib client for the experiment service.

:class:`ServiceClient` wraps the five HTTP endpoints in direct method
calls — submit, list, status, result, cancel — plus a :meth:`wait` helper
that polls a job to a terminal state.  Every request goes through the
fabric's transport (:func:`repro.fabric.transport.request_json`), so
scripts (and ``examples/service_client.py``) need nothing beyond the
standard library and share the fabric clients' retry behaviour.

Transport faults ride the fabric's bounded retry/backoff/jitter policy
(:mod:`repro.fabric.retry`): connection errors, 5xx responses and garbled
bodies retry ``retries`` times.  A 4xx or a 5xx that persists raises
:class:`ServiceError`; a service that never answers raises
:class:`~repro.fabric.transport.TransportError` (a :class:`ConnectionError`
chained to the last failure), so a service restarting under a supervisor or
briefly overloaded does not fail scripts. ``retries=0`` opts out (single
attempt). Note the one caveat of retrying ``submit``: if the *response* to
a successful POST is lost, the retry submits a second identical job —
harmless for experiment jobs (the store serves the duplicate's trials), but
scripts that must not double-submit should pass ``retries=0`` and handle
errors themselves.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional
from urllib.parse import quote

from repro.fabric.retry import RetryPolicy
from repro.fabric.transport import parse_http_url, request_json
from repro.service.jobs import JobState


class ServiceError(RuntimeError):
    """A non-2xx response from the service, with the decoded payload."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Method-per-endpoint client for one experiment service."""

    def __init__(self, base_url: str = "http://127.0.0.1:8642",
                 timeout: float = 60.0, retries: int = 3) -> None:
        self.host, self.port = parse_http_url(base_url, 8642)
        self.policy = RetryPolicy(retries=retries, timeout=timeout)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def info(self) -> Dict[str, object]:
        """``GET /`` — service description, pool size, job counts."""
        return self._call("GET", "/")

    def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST /jobs`` — submit an experiment request; returns the job
        status (its ``id`` is what every other call takes)."""
        return self._call("POST", "/jobs", body=payload)

    def jobs(self, states: Optional[List[str]] = None,
             ) -> List[Dict[str, object]]:
        """``GET /jobs`` — job summaries, optionally filtered by state."""
        path = "/jobs"
        if states:
            path += "?state=" + quote(",".join(states))
        return self._call("GET", path)["jobs"]

    def status(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/{id}`` — lifecycle state plus per-point progress."""
        return self._call("GET", f"/jobs/{quote(job_id)}")

    def result(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/{id}/result`` — the full ``run --format json``
        payload (raises :class:`ServiceError` 409 until available)."""
        return self._call("GET", f"/jobs/{quote(job_id)}/result")

    def cancel(self, job_id: str) -> Dict[str, object]:
        """``DELETE /jobs/{id}`` — request cancellation; returns status."""
        return self._call("DELETE", f"/jobs/{quote(job_id)}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_interval: float = 0.05) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns its status.

        Raises :class:`TimeoutError` if the job is still live after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:.1f}s")
            time.sleep(poll_interval)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _call(self, method: str, path: str,
              body: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """One exchange under the retry policy; non-2xx raises
        :class:`ServiceError` (4xx responses are never retried)."""
        status, payload = request_json(self.host, self.port, method, path,
                                       body, policy=self.policy)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload
