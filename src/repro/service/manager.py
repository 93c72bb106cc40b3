"""The job manager: the service's lifecycle brain.

:class:`JobManager` accepts experiment submissions, validates them eagerly
against the protocol/topology registries (a bad request never reaches the
queue), assigns job IDs, and drives each job through the
``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED`` state machine on a
thread of its own.  Execution itself goes point-by-point through the shared
:class:`~repro.service.backend.WarmPool` with the PR-5 results store
consulted first — a point whose record is already on disk is served without
touching the pool at all, and every executed point is written back the
moment it completes, so a cancelled or crashed job loses nothing that
finished.

Concurrency model (the :class:`~repro.fabric.coordinator.Coordinator`'s):
one lock guards the job table and every state transition, and is never
held while a point runs.  Each job is one thread; an optional bounded
semaphore caps how many run at once (the rest stay ``QUEUED``).  Running
jobs interleave naturally — their points' trials share the one warm pool —
so a short job submitted after a long one does not wait for the long one
to drain.  Cancellation is cooperative at point granularity: the in-flight
point finishes (its write-back included), the remaining points are skipped.

Results are bit-identical to the CLI path by construction: the manager runs
the exact :func:`repro.api.executor.batch_tasks` seed derivation and
:func:`run_trials` core a ``repro-ssle run`` would, and assembles the exact
``run --format json`` payload shape, so a client cannot tell (except by
wall-clock fields) whether its numbers came from the service, the CLI, or
the store.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Union

from repro.api.builder import ExperimentResult
from repro.api.executor import BatchRequest, TrialResult, batch_tasks
from repro.api.registry import get_spec
from repro.service.backend import WarmPool
from repro.service.jobs import Job, JobState, PointProgress, validate_states
from repro.service.requests import JobRequest


class UnknownJobError(KeyError):
    """No job with that ID (the HTTP layer's 404)."""


class JobStoreView:
    """Per-job served/executed counters over the shared results store.

    The executor increments ``served``/``executed`` on whatever store object
    it is handed; giving each job its own thin view keeps those counters
    per-job (the status endpoint's numbers) while all reads and writes go
    to the one real store every job shares.
    """

    def __init__(self, store) -> None:
        self._store = store
        self.served = 0
        self.executed = 0

    @property
    def write(self) -> bool:
        return self._store.write

    @property
    def root(self):
        return self._store.root

    def load(self, digest):
        return self._store.load(digest)

    def save(self, digest, meta, trials) -> None:
        self._store.save(digest, meta, trials)

    def stats(self) -> Dict[str, object]:
        """The same shape :meth:`ResultsStore.stats` reports, job-scoped."""
        return {
            "root": str(self.root),
            "write": self.write,
            "served": self.served,
            "executed": self.executed,
        }


class JobManager:
    """Job lifecycle over a warm pool: submit, list, status, result, cancel."""

    def __init__(self, backend: Optional[WarmPool] = None, store=None,
                 max_jobs: Optional[int] = None) -> None:
        if max_jobs is not None and max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self.backend = backend or WarmPool(workers=0)
        self.store = store
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._threads: List[threading.Thread] = []
        self._ids = itertools.count(1)
        self._slots = (threading.BoundedSemaphore(max_jobs)
                       if max_jobs is not None else None)

    # ------------------------------------------------------------------ #
    # The lifecycle API
    # ------------------------------------------------------------------ #
    def submit(self, payload: Union[Dict[str, object], JobRequest,
                                    None]) -> Job:
        """Validate a submission, queue it, and return the new job.

        Validation is eager and complete — request shape, protocol, engine,
        sizes, topology, family — so any job that exists was runnable when
        accepted.  Raises :class:`ValidationError` otherwise.
        """
        request = (payload if isinstance(payload, JobRequest)
                   else JobRequest.from_payload(payload))
        families = request.validate()
        points = [PointProgress(spec=request.protocol, population_size=n,
                                family=family, trials=request.config.trials)
                  for n, family in zip(request.sizes, families)]
        with self._lock:
            job = Job(id=f"job-{next(self._ids):04d}", request=request,
                      points=points)
            self._jobs[job.id] = job
            thread = threading.Thread(target=self._run_job, args=(job,),
                                      name=job.id, daemon=True)
            # Started under the lock, so drain() never joins an unstarted
            # thread.
            thread.start()
            self._threads.append(thread)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(
                    f"no job {job_id!r}; known jobs: {sorted(self._jobs)}"
                ) from None

    def jobs(self, states: Optional[List[str]] = None) -> List[Job]:
        """All jobs in submission order, optionally filtered by state."""
        if states is not None:
            validate_states(states)
        with self._lock:
            return [job for job in self._jobs.values()
                    if states is None or job.state in states]

    def cancel(self, job_id: str) -> Job:
        """Cancel a job (idempotent; a terminal job is left untouched).

        A ``QUEUED`` job is cancelled outright.  A ``RUNNING`` job gets the
        cooperative flag: its in-flight point finishes — and is written back
        to the store — then the remaining points are skipped.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state == JobState.QUEUED:
                job.cancel_requested = True
                job.advance(JobState.CANCELLED)
            elif job.state == JobState.RUNNING:
                job.cancel_requested = True
        return job

    def drain(self) -> None:
        """Wait for every submitted job's thread to finish (test/shutdown
        aid)."""
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join()

    def close(self) -> None:
        """Cancel whatever still runs and wait it out (the pool stays up —
        its owner closes it)."""
        for job in self.jobs():
            self.cancel(job.id)
        self.drain()

    # ------------------------------------------------------------------ #
    # Execution (on the job's thread)
    # ------------------------------------------------------------------ #
    def _run_job(self, job: Job) -> None:
        if self._slots is None:
            self._execute(job)
        else:
            with self._slots:
                self._execute(job)

    def _execute(self, job: Job) -> None:
        with self._lock:
            if job.terminal:  # cancelled while QUEUED
                return
            job.advance(JobState.RUNNING)
        store_view = (JobStoreView(self.store)
                      if self.store is not None else None)
        spec = get_spec(job.request.protocol)
        results: List[Dict[str, object]] = []
        try:
            for index, batch in enumerate(job.request.batch_requests()):
                point = job.points[index]
                if job.cancel_requested:
                    for skipped in job.points[index:]:
                        skipped.skipped = True
                    break
                outcomes, wall_time = self._run_point(point, batch,
                                                      store_view)
                point.done = True
                results.append(self._point_result(
                    job, batch, outcomes, wall_time))
        except Exception as error:  # the job fails; the service survives
            with self._lock:
                job.error = f"{type(error).__name__}: {error}"
                job.advance(JobState.FAILED)
            return
        with self._lock:
            job.result = {
                "command": "run",
                "protocol": spec.name,
                "kind": spec.kind,
                "seed": job.request.config.seed,
                "results": results,
                "store": (store_view.stats()
                          if store_view is not None else None),
            }
            job.advance(JobState.CANCELLED if job.cancel_requested
                        else JobState.DONE)

    def _run_point(self, point: PointProgress, batch: BatchRequest,
                   store_view):
        """One point on the warm pool, with live served/executed counters."""
        tasks = batch_tasks(batch)

        def on_result(position: int, task, outcome, served: bool,
                      ) -> None:
            # Runs on this job's thread, the counters' only writer; the
            # status endpoint reads them without the lock.
            if served:
                point.served += 1
            else:
                point.executed += 1

        started = time.perf_counter()
        outcomes = self.backend.run_point(tasks, store=store_view,
                                          on_result=on_result)
        return outcomes, time.perf_counter() - started

    def _point_result(self, job: Job, batch: BatchRequest,
                      outcomes: List[TrialResult],
                      wall_time: float) -> Dict[str, object]:
        """One point's result in the exact CLI ``run --format json`` shape."""
        spec = get_spec(batch.spec_name)
        config = job.request.config
        result = ExperimentResult(
            spec=batch.spec_name,
            protocol=outcomes[0].protocol_name or spec.name,
            population_size=batch.population_size,
            family=batch.family or spec.default_family,
            seed=config.seed,
            max_steps=config.max_steps,
            workers=max(1, self.backend.workers),
            trials=tuple(outcomes),
            wall_time=wall_time,
            topology=config.topology,
            topology_params=config.topology_params,
        )
        return result.to_dict()
