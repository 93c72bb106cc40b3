"""Job model of the experiment service: lifecycle states and progress.

A *job* is one submitted experiment request — a protocol swept over one or
more population sizes — tracked through the lifecycle state machine

    QUEUED -> RUNNING -> DONE | FAILED | CANCELLED

(the pod create/list/status/delete idiom: a submission is acknowledged
immediately with an identifier, and every later question — how far along,
what came out, stop it — is a lookup on that identifier).  Transitions are
validated by :meth:`Job.advance`, so an impossible move (``DONE`` back to
``RUNNING``, finishing a cancelled job) is a programming error that fails
loudly instead of silently corrupting the table the API serves.

Progress is tracked per *point* (one ``(protocol, n)`` batch): how many of
its trials were served from the results store, how many were executed on
the pool, whether the point finished — the counters the job-status endpoint
reports live while the pool is still working.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class JobState:
    """The lifecycle states (plain strings, JSON-ready)."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    #: Every state, in lifecycle order (the list/status filter validates
    #: against this).
    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    #: States a job never leaves.
    TERMINAL = frozenset((DONE, FAILED, CANCELLED))

    #: The allowed transitions of the state machine.
    TRANSITIONS = {
        QUEUED: frozenset((RUNNING, FAILED, CANCELLED)),
        RUNNING: frozenset((DONE, FAILED, CANCELLED)),
        DONE: frozenset(),
        FAILED: frozenset(),
        CANCELLED: frozenset(),
    }


def validate_states(names: List[str]) -> List[str]:
    """Validate a status-filter list against the known states."""
    for name in names:
        if name not in JobState.ALL:
            raise ValueError(
                f"unknown job state {name!r}; known states: "
                f"{', '.join(JobState.ALL)}"
            )
    return names


@dataclass
class PointProgress:
    """Live progress of one ``(protocol, n)`` point of a job."""

    spec: str
    population_size: int
    family: str
    trials: int
    #: Trials served from the results store (known the moment the point
    #: starts — cached trials never reach the pool).
    served: int = 0
    #: Trials actually executed on the worker pool so far.
    executed: int = 0
    #: True once every trial of the point has a result.
    done: bool = False
    #: True when a cancellation skipped the point before it started.
    skipped: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "population_size": self.population_size,
            "family": self.family,
            "trials": self.trials,
            "served": self.served,
            "executed": self.executed,
            "done": self.done,
            "skipped": self.skipped,
        }


@dataclass
class Job:
    """One submitted experiment request and everything known about it."""

    id: str
    request: "JobRequest"  # noqa: F821 - repro.service.requests.JobRequest
    state: str = JobState.QUEUED
    points: List[PointProgress] = field(default_factory=list)
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Set by DELETE /jobs/{id} on a running job: the in-flight point
    #: finishes, the remaining points are skipped.
    cancel_requested: bool = False
    #: The error message of a FAILED job.
    error: Optional[str] = None
    #: The full result payload of a finished job (DONE always; CANCELLED
    #: when at least the completed points produced results) — the exact
    #: JSON the CLI's ``run --format json`` would print.
    result: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # The state machine
    # ------------------------------------------------------------------ #
    def advance(self, state: str) -> None:
        """Move to ``state``, enforcing the lifecycle transitions."""
        if state not in JobState.TRANSITIONS[self.state]:
            raise ValueError(
                f"job {self.id}: illegal transition {self.state} -> {state}"
            )
        # Timestamps first: a status read on another thread that sees the
        # new state also sees its timestamp.
        if state == JobState.RUNNING:
            self.started = time.time()
        if state in JobState.TERMINAL:
            self.finished = time.time()
        self.state = state

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    # ------------------------------------------------------------------ #
    # Aggregate progress
    # ------------------------------------------------------------------ #
    @property
    def trials_served(self) -> int:
        return sum(point.served for point in self.points)

    @property
    def trials_executed(self) -> int:
        return sum(point.executed for point in self.points)

    @property
    def points_completed(self) -> int:
        return sum(1 for point in self.points if point.done)

    # ------------------------------------------------------------------ #
    # API payloads
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """The one-row shape of ``GET /jobs`` (list with status filter)."""
        return {
            "id": self.id,
            "state": self.state,
            "protocol": self.request.protocol,
            "sizes": list(self.request.sizes),
            "trials": self.request.config.trials,
            "created": self.created,
            "points_completed": self.points_completed,
            "points_total": len(self.points),
        }

    def status(self) -> Dict[str, object]:
        """The full shape of ``GET /jobs/{id}`` — status plus progress."""
        return {
            "id": self.id,
            "state": self.state,
            "request": self.request.describe(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "progress": {
                "points_completed": self.points_completed,
                "points_total": len(self.points),
                "trials_served": self.trials_served,
                "trials_executed": self.trials_executed,
                "points": [point.to_dict() for point in self.points],
            },
        }
