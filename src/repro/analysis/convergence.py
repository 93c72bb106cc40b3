"""Convergence measurement: run a protocol from adversarial starts until a predicate holds.

This is the workhorse behind every timing experiment: it packages the
"configuration builder -> simulation -> run until safe -> record steps" loop,
repeated over independent trials, into :func:`measure_convergence`, and also
provides :func:`closure_check` for the complementary safety property (once
safe, outputs never change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

from repro.analysis.stats import SampleSummary
from repro.core.configuration import Configuration
from repro.core.errors import InvalidParameterError
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource, ensure_source
from repro.core.simulator import Simulation
from repro.topology.graph import Population

StateT = TypeVar("StateT")

#: Builds an initial configuration for one trial: (trial_rng) -> Configuration.
ConfigurationFactory = Callable[[RandomSource], Configuration]
#: Convergence predicate evaluated on the live state list.
Predicate = Callable[[Sequence[StateT]], bool]


def _seeded_simulation(protocol: Protocol, population: Population,
                       initial: Configuration, rng: RandomSource) -> Simulation:
    """The step-engine :class:`Simulation` of one trial, seeded by one ``rng.randint``."""
    return Simulation(protocol, population, initial, rng=rng.randint(0, 2 ** 31 - 1))


@dataclass
class ConvergenceResult(Generic[StateT]):
    """Steps-to-convergence over several independent adversarial trials."""

    protocol_name: str
    population_size: int
    trials: int
    steps: List[int] = field(default_factory=list)
    failures: int = 0

    @property
    def all_converged(self) -> bool:
        """True when every trial reached the predicate within its budget."""
        return self.failures == 0

    def summary(self) -> SampleSummary:
        """Mean/median/min/max of the converged trials' step counts.

        An all-failed run (every trial missed its budget) degrades to
        :meth:`SampleSummary.empty` — count 0 and NaN statistics — instead
        of raising ``InvalidParameterError`` out of a report path: callers
        render ``failures=trials``, not a traceback.
        """
        if not self.steps:
            return SampleSummary.empty()
        return SampleSummary.of(self.steps)

    def mean_steps(self) -> float:
        """Mean steps over converged trials (``inf`` when nothing converged)."""
        return self.summary().mean if self.steps else float("inf")


def measure_convergence(
    protocol: Protocol[StateT],
    population: Population,
    configuration_factory: ConfigurationFactory,
    predicate: Predicate,
    trials: int,
    max_steps: int,
    check_interval: int = 64,
    rng: "RandomSource | int | None" = None,
) -> ConvergenceResult[StateT]:
    """Run ``trials`` independent executions and record the steps to reach ``predicate``.

    Each trial draws its own initial configuration from
    ``configuration_factory`` and its own scheduler seed; trials that do not
    converge within ``max_steps`` are counted in ``failures`` instead of
    contributing a step count.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    source = ensure_source(rng)
    result: ConvergenceResult[StateT] = ConvergenceResult(
        protocol_name=protocol.name,
        population_size=population.size,
        trials=trials,
    )
    for trial in range(trials):
        trial_rng = source.spawn(f"trial-{trial}")
        initial = configuration_factory(trial_rng.spawn("configuration"))
        simulation = _seeded_simulation(protocol, population, initial,
                                        trial_rng.spawn("scheduler"))
        run = simulation.run_until(predicate, max_steps=max_steps,
                                   check_interval=check_interval)
        if run.satisfied:
            result.steps.append(run.steps)
        else:
            result.failures += 1
    return result


@dataclass(frozen=True)
class PhaseSummary:
    """Step statistics for one scenario phase across a batch of trials.

    ``summary`` covers the trials that *converged in this phase*;
    ``failures`` counts the trials whose run ended unconverged here — the
    phase a scenario failure is attributed to.  Trials that never reached
    this phase (their run stopped at an earlier phase's budget miss)
    contribute to neither number.
    """

    phase: int
    perturbation: str
    summary: SampleSummary
    failures: int

    @property
    def converged(self) -> int:
        """Trials that completed this phase within its budget."""
        return self.summary.count


def summarize_phases(trials: Sequence) -> List[PhaseSummary]:
    """Per-phase re-convergence summaries over one batch of scenario trials.

    ``trials`` is any sequence of objects exposing a ``phases`` sequence of
    per-phase records (``phase``/``perturbation``/``steps``/``converged`` —
    the shape :class:`repro.api.executor.TrialResult` reports), so it works
    on live results and on records rebuilt from the store alike.  Legacy
    trials (empty ``phases``) contribute nothing; a batch of them summarizes
    to the empty list.
    """
    steps_by_phase: dict = {}
    failures_by_phase: dict = {}
    labels: dict = {}
    for trial in trials:
        for phase in getattr(trial, "phases", ()):
            labels.setdefault(phase.phase, phase.perturbation)
            if phase.converged:
                steps_by_phase.setdefault(phase.phase, []).append(phase.steps)
            else:
                failures_by_phase[phase.phase] = (
                    failures_by_phase.get(phase.phase, 0) + 1)
    return [
        PhaseSummary(
            phase=index,
            perturbation=labels[index],
            summary=(SampleSummary.of(steps_by_phase[index])
                     if steps_by_phase.get(index) else SampleSummary.empty()),
            failures=failures_by_phase.get(index, 0),
        )
        for index in sorted(labels)
    ]


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a closure check: did the outputs ever change after the safe point?"""

    steps_checked: int
    output_changes: int
    leader_always_unique: bool

    @property
    def closed(self) -> bool:
        """True when no output changed and the leader stayed unique throughout."""
        return self.output_changes == 0 and self.leader_always_unique


def closure_check(
    protocol: Protocol[StateT],
    population: Population,
    safe_configuration: Configuration,
    steps: int,
    rng: "RandomSource | int | None" = None,
) -> ClosureReport:
    """Run ``steps`` interactions from a (claimed) safe configuration and watch the outputs.

    The closure half of self-stabilization: outputs must never change once a
    safe configuration is reached.  Any observed change is counted rather than
    raised, so tests can report how badly closure failed if it does.
    """
    source = ensure_source(rng)
    simulation = _seeded_simulation(protocol, population, safe_configuration, source)
    reference_outputs = [protocol.output(state) for state in simulation.states()]
    changes = 0
    unique = True
    for _ in range(steps):
        simulation.step()
        outputs = [protocol.output(state) for state in simulation.states()]
        if outputs != reference_outputs:
            changes += 1
            reference_outputs = outputs
        leaders = sum(1 for state in simulation.states() if protocol.is_leader(state))
        if leaders != 1:
            unique = False
    return ClosureReport(steps_checked=steps, output_changes=changes,
                         leader_always_unique=unique)


def leader_count_trajectory(
    protocol: Protocol[StateT],
    population: Population,
    initial: Configuration,
    steps: int,
    sample_interval: int,
    rng: "RandomSource | int | None" = None,
) -> List[tuple]:
    """``(step, leader count)`` samples along one execution — used by examples and figures."""
    if sample_interval < 1:
        raise InvalidParameterError(f"sample_interval must be >= 1, got {sample_interval}")
    source = ensure_source(rng)
    simulation = _seeded_simulation(protocol, population, initial, source)
    trajectory = [(0, simulation.leader_count())]
    executed = 0
    while executed < steps:
        burst = min(sample_interval, steps - executed)
        simulation.run(burst)
        executed += burst
        trajectory.append((executed, simulation.leader_count()))
    return trajectory
