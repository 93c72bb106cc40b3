"""Experiment service: a job-lifecycle API over a warm worker pool.

The package splits into the layers a request passes through:

- :mod:`repro.service.requests` — submission payload parsing and eager
  validation against the protocol/engine/topology registries;
- :mod:`repro.service.jobs` — the job record and its
  ``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED`` state machine;
- :mod:`repro.service.backend` — the one long-lived process pool every job
  shares (worker imports survive across jobs);
- :mod:`repro.service.manager` — the lifecycle brain tying the above to
  the PR-5 results store, one thread per job;
- :mod:`repro.service.http` — the HTTP/JSON routes (``repro-ssle serve``),
  served by the threaded server the fabric's daemons share;
- :mod:`repro.service.client` — the thin stdlib client, on the fabric's
  retrying transport.
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
