"""The phased scenario runtime: perturb, re-converge, repeat.

:func:`execute_scenario` runs one trial's scenario — an ordered list of
phases — on whatever engine the config selects, producing a per-phase
step/convergence breakdown.  The executor calls it for any task whose config
carries a non-empty canonical scenario; the empty scenario (today's single
convergence) never reaches this module, so the legacy execution path — and
its store digests — stay byte-for-byte untouched.

Determinism contract
--------------------
Phase 0 consumes the task's ``configuration_seed``/``scheduler_seed``
streams exactly like a legacy single-run trial.  Every later phase ``i``
derives fresh, position-independent streams by pure ``spawn``:

* scheduler: ``RandomSource(scheduler_seed).spawn(f"phase-{i}")``,
* perturbation: ``RandomSource(configuration_seed).spawn(f"phase-{i}-perturbation")``,

so a phase's randomness depends only on the trial seeds and the phase
index — never on how many draws an earlier phase happened to consume.  Each
phase *rebuilds* its simulation from the previous phase's final states
(rather than continuing one stream across the boundary): churn changes the
arc space and bias swaps the scheduler, so a phase's stream must not depend
on where the previous one stopped.  Rebuilding from a
derived seed makes every phase exactly one engine-factory construction —
each factory consumes one ``rng.randint`` in the same position — which is
what keeps step == batched per phase, and serial == parallel for free (the
seeds are derived before any fan-out).

``run_until`` is the segment primitive: within a phase the engine's counters
and stream simply continue, and a repeated call resumes where the previous
segment stopped (the ``snapshot()/restore()`` contract captures exactly this
resumable position).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.api.executor import PhaseResult, TrialTask
from repro.core.configuration import Configuration
from repro.core.rng import RandomSource
from repro.scenario.perturbations import apply_perturbation, require_perturbation
from repro.scenario.spec import CanonicalScenario, PhaseSpec, ScenarioError, ScenarioSpec


@dataclass(frozen=True)
class ScenarioOutcome:
    """What a scenario execution produced (wall time is the caller's)."""

    phases: Tuple[PhaseResult, ...]
    steps: int
    converged: bool
    engine: str
    protocol_name: str


def _phase_rngs(task: TrialTask, index: int) -> Tuple[RandomSource, RandomSource]:
    """The (scheduler, perturbation) streams for phase ``index``.

    Phase 0's scheduler stream is the legacy one — ``RandomSource(seed)``
    with no spawn — so a scenario whose first phase is the plain converge
    phase replays a legacy trial draw-for-draw.
    """
    if index == 0:
        scheduler = RandomSource(task.scheduler_seed)
    else:
        scheduler = RandomSource(task.scheduler_seed).spawn(f"phase-{index}")
    perturbation = RandomSource(task.configuration_seed).spawn(
        f"phase-{index}-perturbation")
    return scheduler, perturbation


def execute_scenario(spec, task: TrialTask, protocol, population,
                     initial: Configuration) -> ScenarioOutcome:
    """Run ``task``'s scenario phase by phase; see the module docstring.

    ``spec`` is the resolved :class:`~repro.api.registry.ProtocolSpec`;
    ``protocol``/``population``/``initial`` are the phase-0 ingredients the
    executor already built (identically to a legacy trial).  Every phase
    runs on the engine ``task.config.engine`` resolves to.
    """
    config = task.config
    phases = ScenarioSpec.from_canonical(config.scenario).phases
    states: List = initial.states()
    scheduler_factory = None
    phase_results: List[PhaseResult] = []
    total_steps = 0
    converged = True
    for index, phase in enumerate(phases):
        scheduler_rng, perturbation_rng = _phase_rngs(task, index)
        if phase.perturbation:
            outcome = apply_perturbation(
                phase.perturbation, protocol, states, perturbation_rng,
                phase.kwargs())
            if outcome.scheduler_factory is not None:
                # Bias persists: later phases keep drawing from the biased
                # scheduler until another bias perturbation replaces it.
                scheduler_factory = outcome.scheduler_factory
            if outcome.size != len(states):
                # Churn: re-wire the population (and rebuild the protocol,
                # whose parameters may depend on n) at the new size.
                protocol = spec.build_protocol(outcome.size, config)
                population = spec.build_population(outcome.size, config)
            states = outcome.states

        scheduler = None
        if scheduler_factory is not None:
            scheduler = scheduler_factory(population, scheduler_rng)
        simulation = spec.build_simulation(
            protocol, population, Configuration(list(states)), scheduler_rng,
            engine=config.engine, scheduler=scheduler,
        )

        if phase.stop == "run":
            simulation.run(phase.budget)
            phase_steps, phase_converged = phase.budget, True
        else:
            predicate = spec.build_stop_predicate(protocol, population)
            run = simulation.run_until(
                predicate,
                max_steps=phase.budget or config.max_steps,
                check_interval=config.check_interval,
            )
            phase_steps, phase_converged = run.steps, run.satisfied
        states = simulation.states()
        total_steps += phase_steps
        converged = converged and phase_converged
        phase_results.append(PhaseResult(
            phase=index,
            perturbation=phase.perturbation,
            steps=phase_steps,
            converged=phase_converged,
            engine=simulation.tier,
            population_size=population.size,
        ))
        if not phase_converged:
            # A missed budget leaves nothing meaningful to perturb; stop
            # here and attribute the failure to this phase.
            break
    return ScenarioOutcome(
        phases=tuple(phase_results),
        steps=total_steps,
        converged=converged,
        engine=simulation.tier,
        protocol_name=protocol.name,
    )


def validate_scenario(scenario: CanonicalScenario, spec, n: int,
                      config) -> None:
    """Raise exactly when :func:`execute_scenario` would fail, without running.

    Checks every phase's perturbation name and parameters, and tracks the
    population size across churn (the topology must re-wire and the spec
    must support each intermediate size).
    """
    from repro.topology.registry import validate_topology

    size = n
    for index, canonical in enumerate(scenario):
        phase = PhaseSpec(perturbation=canonical[0], params=canonical[1],
                          stop=canonical[2], budget=canonical[3])
        if not phase.perturbation:
            continue
        perturbation = require_perturbation(phase.perturbation)
        try:
            perturbation.validate(size, phase.kwargs())
        except ScenarioError as error:
            raise ScenarioError(f"scenario phase {index}: {error}") from None
        if phase.perturbation == "churn":
            params = phase.kwargs()
            size = size - params.get("leave", 1) + params.get("join", 1)
            try:
                spec.require_supported(size)
                spec.require_topology(config.topology)
                validate_topology(config.topology, size,
                                  **config.topology_kwargs())
            except (ValueError, KeyError) as error:
                message = error.args[0] if error.args else str(error)
                raise ScenarioError(
                    f"scenario phase {index}: churn resizes the population "
                    f"to n={size}, which is infeasible: {message}"
                ) from None
