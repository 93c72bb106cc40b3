"""The simulation engine: executes a protocol under a scheduler.

An execution ``Xi_P(C_0, Gamma) = C_0, C_1, ...`` applies the transition
function to the arc the scheduler picks at each step (Section 2).

:class:`Simulation` keeps a mutable working copy of the agent states for
speed (the convergence experiments run millions of interactions) and exposes
immutable :class:`~repro.core.configuration.Configuration` snapshots on
demand.  Periodic predicates ("has the population reached a safe
configuration?") are evaluated through :meth:`Simulation.run_until`.  An
optional :class:`Oracle` inspects, and may rewrite, the configuration at a
fixed cadence: the model of components outside the pairwise transition
function, such as Fischer–Jiang's eventual leader detector.
"""

from __future__ import annotations

import copy
import typing
from dataclasses import dataclass
from typing import Callable, Generic, List, MutableSequence, Optional, Sequence, TypeVar

from repro.core.configuration import Configuration
from repro.core.errors import (
    ConvergenceError,
    InvalidConfigurationError,
    InvalidParameterError,
    ScheduleExhaustedError,
)
from repro.core.metrics import StepMetrics
from repro.core.protocol import Protocol
from repro.core.scheduler import Scheduler, UniformRandomScheduler
from repro.topology.graph import Population

StateT = TypeVar("StateT")

#: Predicate over the list of agent states, evaluated periodically by run_until.
StatePredicate = Callable[[Sequence[StateT]], bool]
#: Observer invoked after every interaction: (step, initiator, responder, states).
InteractionObserver = Callable[[int, int, int, Sequence[StateT]], None]


class Oracle(typing.Protocol):
    """A simulation-level component outside the transition function.

    Both engines call :meth:`observe_and_report` on the agents' states after
    every ``report_interval``-th step (counted from the simulation's start),
    before any stop-predicate check; e.g.
    :class:`~repro.protocols.baselines.fischer_jiang.OracleOmega`.
    """

    report_interval: int

    def observe_and_report(self, states: MutableSequence) -> bool:
        """Inspect ``states``; write replacement states into it (never
        mutating a state object) and return True when it did."""


@dataclass
class RunResult(Generic[StateT]):
    """Outcome of :meth:`Simulation.run_until`."""

    #: True when the stop predicate held before the step budget ran out.
    satisfied: bool
    #: Total number of steps executed by this call.
    steps: int
    #: The configuration at the end of the run.
    configuration: Configuration[StateT]

    def require_satisfied(self) -> "RunResult[StateT]":
        """Raise :class:`ConvergenceError` unless the predicate was reached."""
        if not self.satisfied:
            raise ConvergenceError(
                f"predicate not reached within {self.steps} steps", self.steps
            )
        return self


class Simulation(Generic[StateT]):
    """Executes one protocol on one population under one scheduler."""

    #: The engine name trial results report ("step" or "batched").
    tier = "step"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "int | None" = None,
        oracle: Optional[Oracle] = None,
    ) -> None:
        if len(initial) != population.size:
            raise InvalidConfigurationError(
                f"configuration has {len(initial)} agents but the population has "
                f"{population.size}"
            )
        # Protocol and population are shared immutable structure; observers
        # are attachments of the *driver*, not of the simulated run, and
        # deliberately survive a restore un-rewound.
        self._protocol = protocol  # repro: allow[REP006]
        self._population = population  # repro: allow[REP006]
        self._states: List[StateT] = initial.states()
        self._scheduler = scheduler or UniformRandomScheduler(population, rng)
        self._metrics = StepMetrics()
        self._oracle = oracle
        self._observers: List[InteractionObserver] = []  # repro: allow[REP006]
        self._total_steps = 0

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def protocol(self) -> Protocol[StateT]:
        """The protocol being executed."""
        return self._protocol

    @property
    def population(self) -> Population:
        """The population graph."""
        return self._population

    @property
    def steps(self) -> int:
        """Total number of steps executed so far."""
        return self._total_steps

    @property
    def metrics(self) -> StepMetrics:
        """Accumulated step metrics."""
        return self._metrics

    def state_of(self, agent: int) -> StateT:
        """Current state of one agent; out-of-range indices raise ``IndexError``."""
        if not 0 <= agent < len(self._states):
            raise IndexError(
                f"agent {agent} out of range for a population of {len(self._states)}"
            )
        return self._states[agent]

    def states(self) -> List[StateT]:
        """The live (mutable) list of agent states.

        Callers must treat the returned list as read-only; it is exposed
        without copying because safety predicates are evaluated every few
        steps during long convergence runs.
        """
        return self._states

    def configuration(self) -> Configuration[StateT]:
        """Immutable snapshot of the current configuration."""
        return Configuration(list(self._states))

    def leader_count(self) -> int:
        """Number of agents currently outputting the leader symbol."""
        return sum(1 for state in self._states if self._protocol.is_leader(state))

    def add_observer(self, observer: InteractionObserver) -> None:
        """Register a callback invoked after every interaction."""
        self._observers.append(observer)

    # ------------------------------------------------------------------ #
    # State capture (the engine snapshot/restore contract)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Capture the full execution state as an opaque mapping.

        The snapshot covers agent states, the scheduler's stream position,
        and every counter, so ``snapshot -> restore -> run`` is bit-identical
        to an uninterrupted run.  Together with the fact that repeated
        :meth:`run_until` calls resume where the previous segment stopped,
        this is what lets phased scenarios replay any segment on any engine.

        States and the oracle (whose memory is run state) are deep-copied
        in both directions: mutable state objects (the baselines' dataclass
        states) could be updated in place, so a shallow capture could be
        silently corrupted by further execution.
        """
        metrics = self._metrics
        return {
            "states": copy.deepcopy(self._states),
            "oracle": copy.deepcopy(self._oracle),
            "scheduler": self._scheduler.getstate(),
            "total_steps": self._total_steps,
            "metrics": (metrics.steps, dict(metrics.interactions_per_agent),
                        metrics.effective_steps),
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        self._states = copy.deepcopy(snapshot["states"])
        self._oracle = copy.deepcopy(snapshot["oracle"])
        self._scheduler.setstate(snapshot["scheduler"])
        self._total_steps = snapshot["total_steps"]
        steps, interactions, effective = snapshot["metrics"]
        self._metrics = StepMetrics(
            steps=steps,
            interactions_per_agent=dict(interactions),
            effective_steps=effective,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute one interaction; return True when the transition changed
        some state (the oracle, consulted after every ``report_interval``-th
        step, does not count)."""
        initiator, responder = self._scheduler.next_arc()
        before_initiator = self._states[initiator]
        before_responder = self._states[responder]
        after_initiator, after_responder = self._protocol.transition(
            before_initiator, before_responder
        )
        changed = (after_initiator != before_initiator) or (after_responder != before_responder)
        self._states[initiator] = after_initiator
        self._states[responder] = after_responder
        self._total_steps += 1
        self._metrics.record(initiator, responder, changed)
        for observer in self._observers:
            observer(self._total_steps, initiator, responder, self._states)
        oracle = self._oracle
        if oracle is not None and self._total_steps % oracle.report_interval == 0:
            oracle.observe_and_report(self._states)
        return changed

    def run(self, steps: int) -> Configuration[StateT]:
        """Execute exactly ``steps`` interactions and return the final snapshot."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()
        return self.configuration()

    def run_sequence(self) -> Configuration[StateT]:
        """Run until the (deterministic) scheduler is exhausted.

        Only meaningful with a :class:`~repro.core.scheduler.SequenceScheduler`
        or an interleaved scheduler whose prefix should be drained.
        """
        try:
            while True:
                self.step()
        except ScheduleExhaustedError:
            pass
        return self.configuration()

    def run_until(
        self,
        predicate: StatePredicate,
        max_steps: int,
        check_interval: int = 1,
    ) -> RunResult[StateT]:
        """Run until ``predicate(states)`` holds, checking every ``check_interval`` steps.

        The predicate is evaluated on the current (live) state list before the
        first step and then after every ``check_interval`` steps, so the
        reported step count overshoots the true hitting time by at most
        ``check_interval - 1`` steps.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        if check_interval < 1:
            raise ValueError(f"check_interval must be positive, got {check_interval}")
        if predicate(self._states):
            return RunResult(True, 0, self.configuration())
        executed = 0
        while executed < max_steps:
            burst = min(check_interval, max_steps - executed)
            for _ in range(burst):
                self.step()
            executed += burst
            if predicate(self._states):
                return RunResult(True, executed, self.configuration())
        return RunResult(False, executed, self.configuration())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulation protocol={self._protocol.name!r} "
            f"population={self._population.name!r} steps={self._total_steps}>"
        )
