"""Job-manager lifecycle: submit, progress, cancel, interleave, store reuse.

The acceptance properties of the tentpole: a job's result is bit-identical
to the direct ``run_spec`` path, a repeat submission against the shared
store executes zero trials, cancellation keeps every completed point, and
two jobs genuinely interleave on the one warm backend.  Each job runs on a
thread of its own, so the tests that need a job held mid-flight use a
backend whose first point waits on a gate.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import run_spec
from repro.api.executor import batch_tasks, run_trials
from repro.service.backend import WarmPool
from repro.service.jobs import Job, JobState
from repro.service.manager import JobManager, JobStoreView, UnknownJobError
from repro.service.requests import JobRequest, ValidationError
from repro.store import ResultsStore

PAYLOAD = {"protocol": "fischer-jiang", "sizes": [6, 8], "trials": 3,
           "max_steps": 400_000, "seed": 17}


#: Bound on every wait for another thread in these tests.
TIMEOUT = 60.0


def _submit_and_drain(manager, payload):
    job = manager.submit(payload)
    manager.drain()
    return job


class GatedPool(WarmPool):
    """Blocks the FIRST point it is asked to run until the gate opens."""

    def __init__(self):
        super().__init__(workers=0)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def run_point(self, tasks, store=None, on_result=None):
        if not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(TIMEOUT), "the gate never opened"
        return super().run_point(tasks, store, on_result)


def wait_for(condition):
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


# ---------------------------------------------------------------------- #
# Lifecycle and result identity
# ---------------------------------------------------------------------- #
def test_job_runs_to_done_with_full_progress():
    pool = GatedPool()
    manager = JobManager(backend=pool)
    job = manager.submit(PAYLOAD)
    # submit returns at once: the job is still in its first point.
    assert pool.entered.wait(TIMEOUT)
    assert job.state == JobState.RUNNING
    pool.gate.set()
    manager.drain()
    assert job.state == JobState.DONE
    assert job.started is not None and job.finished is not None
    assert job.points_completed == 2
    assert job.trials_executed == 6 and job.trials_served == 0
    assert all(point.done and not point.skipped for point in job.points)


def test_job_result_is_bit_identical_to_the_direct_path():
    job = _submit_and_drain(JobManager(), PAYLOAD)
    request = JobRequest.from_payload(PAYLOAD)
    payload = job.result
    assert payload["command"] == "run"
    assert payload["protocol"] == "fischer-jiang"
    assert payload["store"] is None
    for entry, batch in zip(payload["results"], request.batch_requests()):
        direct = run_trials(batch_tasks(batch))
        summary = run_spec("fischer-jiang", batch.population_size,
                           request.config)
        assert entry["population_size"] == batch.population_size
        assert entry["seed"] == request.config.seed
        assert ([(trial["steps"], trial["converged"], trial["engine"])
                 for trial in entry["trials"]]
                == [(outcome.steps, outcome.converged, outcome.engine)
                    for outcome in direct])
        assert entry["mean_steps"] == summary.mean_steps()


def test_submit_accepts_a_prebuilt_request():
    request = JobRequest.from_payload(PAYLOAD)
    job = _submit_and_drain(JobManager(), request)
    assert job.state == JobState.DONE and job.request is request


def test_invalid_submission_creates_no_job():
    manager = JobManager()
    with pytest.raises(ValidationError):
        manager.submit({"protocol": "no-such-spec"})
    assert manager.jobs() == []


def test_unknown_job_id_raises():
    manager = JobManager()
    with pytest.raises(UnknownJobError):
        manager.get("job-9999")
    with pytest.raises(UnknownJobError):
        manager.cancel("job-9999")


def test_jobs_filter_validates_states():
    manager = JobManager()
    job = _submit_and_drain(manager, PAYLOAD)
    assert manager.jobs([JobState.DONE]) == [job]
    assert manager.jobs([JobState.RUNNING]) == []
    with pytest.raises(ValueError, match="unknown job state"):
        manager.jobs(["SLEEPING"])


# ---------------------------------------------------------------------- #
# Store integration: repeats never touch the pool
# ---------------------------------------------------------------------- #
def test_second_identical_submission_executes_zero_trials(tmp_path):
    manager = JobManager(store=ResultsStore(tmp_path))
    first = _submit_and_drain(manager, PAYLOAD)
    second = _submit_and_drain(manager, PAYLOAD)
    assert first.result["store"] == {**first.result["store"],
                                     "served": 0, "executed": 6}
    assert second.trials_executed == 0 and second.trials_served == 6
    assert second.result["store"]["executed"] == 0
    assert second.result["store"]["served"] == 6
    # Everything but the wall-clock measurement is identical.
    for entry, repeat in zip(first.result["results"],
                             second.result["results"]):
        assert {key: value for key, value in entry.items()
                if key != "wall_time"} \
            == {key: value for key, value in repeat.items()
                if key != "wall_time"}


def test_store_view_keeps_counters_per_job(tmp_path):
    store = ResultsStore(tmp_path)
    store.served = 41  # the shared store's own counters must stay untouched
    view = JobStoreView(store)
    assert view.write is True and view.root == store.root
    view.served += 2
    assert (view.served, store.served) == (2, 41)
    assert view.stats() == {"root": str(store.root), "write": True,
                            "served": 2, "executed": 0}


# ---------------------------------------------------------------------- #
# Cancellation
# ---------------------------------------------------------------------- #
class HookedPool(WarmPool):
    """An inline backend that fires a callback after each completed point."""

    def __init__(self, after_point):
        super().__init__(workers=0)
        self.after_point = after_point

    def run_point(self, tasks, store=None, on_result=None):
        outcomes = super().run_point(tasks, store, on_result)
        self.after_point()
        return outcomes


def cancelled_after_first_point(store):
    """A job over ``PAYLOAD`` whose cancellation lands during point one."""
    holder = {}
    manager = JobManager(
        backend=HookedPool(lambda: manager.cancel(holder["id"])),
        store=store)
    job = manager.submit(PAYLOAD)
    holder["id"] = job.id
    manager.drain()
    return job


def test_cancel_running_job_keeps_completed_points(tmp_path):
    job = cancelled_after_first_point(ResultsStore(tmp_path))
    assert job.state == JobState.CANCELLED and job.cancel_requested
    assert [point.done for point in job.points] == [True, False]
    assert [point.skipped for point in job.points] == [False, True]
    # The completed point's result survives, and its batch reached the store.
    assert len(job.result["results"]) == 1
    assert job.result["results"][0]["population_size"] == 6
    assert job.result["store"]["executed"] == 3


def test_cancel_running_job_writes_completed_point_to_store(tmp_path):
    store = ResultsStore(tmp_path)
    cancelled_after_first_point(store)
    # A fresh job over the same request serves the completed point from
    # disk and only executes the skipped one.
    job = _submit_and_drain(JobManager(store=store), PAYLOAD)
    assert job.state == JobState.DONE
    assert (job.trials_served, job.trials_executed) == (3, 3)


def test_cancel_queued_job_never_runs():
    pool = GatedPool()
    manager = JobManager(backend=pool, max_jobs=1)
    blocker = manager.submit(PAYLOAD)
    assert pool.entered.wait(TIMEOUT)
    queued = manager.submit(PAYLOAD)
    manager.cancel(queued.id)
    assert queued.state == JobState.CANCELLED
    pool.gate.set()
    manager.drain()
    assert blocker.state == JobState.DONE
    assert queued.state == JobState.CANCELLED
    assert queued.result is None and queued.trials_executed == 0


def test_cancel_is_idempotent_on_terminal_jobs():
    manager = JobManager()
    job = _submit_and_drain(manager, PAYLOAD)
    assert job.state == JobState.DONE
    manager.cancel(job.id)
    assert job.state == JobState.DONE and not job.cancel_requested


# ---------------------------------------------------------------------- #
# Failure isolation and interleaving
# ---------------------------------------------------------------------- #
class ExplodingPool(WarmPool):
    def __init__(self):
        super().__init__(workers=0)

    def run_point(self, tasks, store=None, on_result=None):
        raise RuntimeError("worker pool on fire")


def test_backend_failure_fails_the_job_not_the_manager():
    manager = JobManager(backend=ExplodingPool())
    failed = _submit_and_drain(manager, PAYLOAD)
    assert failed.state == JobState.FAILED
    assert "worker pool on fire" in failed.error
    assert failed.result is None
    # The manager survives: it still answers, and a later job on a healthy
    # backend still runs.
    assert manager.jobs([JobState.FAILED]) == [failed]
    assert _submit_and_drain(JobManager(), PAYLOAD).state == JobState.DONE


def test_two_jobs_interleave_on_the_shared_backend():
    pool = GatedPool()
    manager = JobManager(backend=pool)
    stalled = manager.submit(PAYLOAD)
    assert pool.entered.wait(TIMEOUT)
    quick = manager.submit(PAYLOAD)
    # The second job must run to completion while the first is still
    # RUNNING (blocked inside its first point).
    wait_for(lambda: quick.state == JobState.DONE)
    assert stalled.state == JobState.RUNNING
    pool.gate.set()
    manager.drain()
    assert stalled.state == JobState.DONE


def test_max_jobs_bounds_concurrency():
    pool = GatedPool()
    manager = JobManager(backend=pool, max_jobs=1)
    stalled = manager.submit(PAYLOAD)
    assert pool.entered.wait(TIMEOUT)
    queued = manager.submit(PAYLOAD)
    time.sleep(0.05)  # room for the second job to start, were it allowed
    assert (stalled.state, queued.state) == (JobState.RUNNING,
                                             JobState.QUEUED)
    pool.gate.set()
    manager.drain()
    assert stalled.state == JobState.DONE and queued.state == JobState.DONE


class CountingPool(WarmPool):
    """Records the most points it ever ran at once."""

    def __init__(self):
        super().__init__(workers=0)
        self._lock = threading.Lock()
        self.running = 0
        self.most = 0

    def run_point(self, tasks, store=None, on_result=None):
        with self._lock:
            self.running += 1
            self.most = max(self.most, self.running)
        try:
            time.sleep(0.002)  # long enough for other jobs to try to start
            return super().run_point(tasks, store, on_result)
        finally:
            with self._lock:
                self.running -= 1


def test_concurrent_submits_and_cancels_keep_the_table_consistent(
        monkeypatch):
    """Six threads submit and cancel at once under a tiny switch interval:
    every job gets a distinct id, ends terminal through legal transitions
    only, and no more than ``max_jobs`` ever run together."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    pool = CountingPool()
    manager = JobManager(backend=pool, max_jobs=2)
    payload = {**PAYLOAD, "sizes": [4, 5], "trials": 1}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def client(index):
            for round_ in range(4):
                job = manager.submit(payload)
                if (index + round_) % 3 == 0:
                    manager.cancel(job.id)
                manager.jobs([JobState.DONE])  # iterates while others insert

        clients = [threading.Thread(target=client, args=(index,))
                   for index in range(6)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(TIMEOUT)
        manager.drain()
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    assert errors == []
    jobs = manager.jobs()
    assert sorted(job.id for job in jobs) == [f"job-{index:04d}"
                                              for index in range(1, 25)]
    assert {job.state for job in jobs} <= {JobState.DONE, JobState.CANCELLED}
    assert sum(job.state == JobState.DONE for job in jobs) >= 16
    assert 1 <= pool.most <= 2


def test_max_jobs_validation():
    with pytest.raises(ValueError, match="max_jobs"):
        JobManager(max_jobs=0)


# ---------------------------------------------------------------------- #
# The state machine itself
# ---------------------------------------------------------------------- #
def test_illegal_transitions_fail_loudly():
    job = Job(id="job-0001", request=JobRequest.from_payload(PAYLOAD))
    job.advance(JobState.RUNNING)
    job.advance(JobState.DONE)
    with pytest.raises(ValueError, match="illegal transition"):
        job.advance(JobState.RUNNING)
    with pytest.raises(ValueError, match="illegal transition"):
        job.advance(JobState.CANCELLED)
