"""Async experiment service: a job-lifecycle API over a warm worker pool.

The package splits into the layers a request passes through:

- :mod:`repro.service.requests` — submission payload parsing and eager
  validation against the protocol/engine/topology registries;
- :mod:`repro.service.jobs` — the job record and its
  ``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED`` state machine;
- :mod:`repro.service.backend` — the one long-lived process pool every job
  shares (worker imports survive across jobs);
- :mod:`repro.service.manager` — the asyncio lifecycle brain tying the
  above to the PR-5 results store;
- :mod:`repro.service.http` — the stdlib HTTP/JSON surface
  (``repro-ssle serve``);
- :mod:`repro.service.client` — the thin stdlib client.
"""

from repro.service.backend import WarmPool
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ExperimentServer, serve
from repro.service.jobs import Job, JobState, PointProgress
from repro.service.manager import JobManager, JobStoreView, UnknownJobError
from repro.service.requests import JobRequest, ValidationError

__all__ = [
    "ExperimentServer",
    "Job",
    "JobManager",
    "JobRequest",
    "JobState",
    "JobStoreView",
    "PointProgress",
    "ServiceClient",
    "ServiceError",
    "UnknownJobError",
    "ValidationError",
    "WarmPool",
    "serve",
]
