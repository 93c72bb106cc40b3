"""Fluent experiment builder: one readable chain from protocol to result.

>>> from repro.api import experiment
>>> result = (experiment("ppl")
...           .on_ring(64)
...           .from_adversarial()
...           .until_safe()
...           .trials(8)
...           .seed(7)
...           .run())
>>> result.all_converged
True

Every method returns the builder, every setting has a sensible default, and
``run()`` returns a typed :class:`ExperimentResult` with per-trial step
counts, wall times, and convergence flags.  ``parallel()`` switches the same
chain onto the process-pool executor with bit-identical trial outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.config import (
    DEFAULT_TOPOLOGY,
    ExperimentConfig,
    freeze_topology_params,
)
from repro.api.executor import TrialResult, run_trials, trial_tasks
from repro.api.registry import ProtocolSpec, get_spec, resolve_engine
from repro.scenario.spec import (
    DEGENERATE_PHASE,
    CanonicalScenario,
    normalize_scenario,
    parse_scenario,
    scenario_to_json,
)


@dataclass(frozen=True)
class ExperimentResult:
    """Typed outcome of one built experiment (one protocol, one population)."""

    spec: str
    protocol: str
    population_size: int
    family: str
    seed: int
    max_steps: int
    workers: int
    trials: Tuple[TrialResult, ...]
    wall_time: float
    topology: str = DEFAULT_TOPOLOGY
    topology_params: Tuple[Tuple[str, int], ...] = ()
    scenario: CanonicalScenario = ()

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    @property
    def trial_count(self) -> int:
        return len(self.trials)

    @property
    def steps(self) -> List[int]:
        """Per-trial step counts, in trial order (budget misses included)."""
        return [trial.steps for trial in self.trials]

    @property
    def converged(self) -> List[bool]:
        """Per-trial convergence flags, in trial order."""
        return [trial.converged for trial in self.trials]

    @property
    def all_converged(self) -> bool:
        return all(trial.converged for trial in self.trials)

    @property
    def failures(self) -> int:
        """Trials that missed their step budget (``failures == trial_count``
        for an all-failed run — reported, never raised)."""
        return sum(1 for trial in self.trials if not trial.converged)

    def mean_steps(self) -> float:
        """Mean steps over converged trials (``inf`` when nothing converged)."""
        counts = [trial.steps for trial in self.trials if trial.converged]
        return sum(counts) / len(counts) if counts else float("inf")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by ``repro-ssle run --format json``)."""
        return {
            "spec": self.spec,
            "protocol": self.protocol,
            "population_size": self.population_size,
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "family": self.family,
            "scenario": scenario_to_json(self.scenario),
            "seed": self.seed,
            "max_steps": self.max_steps,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "all_converged": self.all_converged,
            "failures": self.failures,
            "mean_steps": self.mean_steps() if self.all_converged or any(self.converged) else None,
            "trials": [trial.to_dict() for trial in self.trials],
        }


class ExperimentBuilder:
    """Fluent configuration of one experiment over one registered protocol."""

    def __init__(self, spec_name: str) -> None:
        self._spec: ProtocolSpec = get_spec(spec_name)
        if not self._spec.is_simulated:
            raise ValueError(
                f"protocol {spec_name!r} is analytic and cannot be run as an "
                "experiment; use repro.api.evaluate_analytic() instead"
            )
        self._n: int = 16
        self._family: str = self._spec.default_family
        self._trials: int = ExperimentConfig.trials
        self._seed: int = ExperimentConfig.seed
        self._max_steps: int = ExperimentConfig.max_steps
        self._check_interval: int = ExperimentConfig.check_interval
        self._kappa_factor: int = ExperimentConfig.kappa_factor
        self._workers: int = 1
        self._engine: str = ExperimentConfig.engine
        self._topology: str = DEFAULT_TOPOLOGY
        self._topology_params: Dict[str, int] = {}
        self._store = None
        self._scenario_phases: List[Tuple] = []
        self._pending_perturbation: Optional[Tuple[str, Tuple]] = None

    # ------------------------------------------------------------------ #
    # Fluent setters (each returns the builder)
    # ------------------------------------------------------------------ #
    def on_ring(self, n: int) -> "ExperimentBuilder":
        """Run on a directed ring of ``n`` agents (validated against the spec)."""
        return self.on_topology(DEFAULT_TOPOLOGY, n)

    def on_complete(self, n: int) -> "ExperimentBuilder":
        """Run on the complete graph over ``n`` agents."""
        return self.on_topology("complete", n)

    def on_torus(self, width: int, height: int) -> "ExperimentBuilder":
        """Run on a ``width x height`` torus (``n = width*height`` agents)."""
        return self.on_topology("torus", width * height,
                                width=width, height=height)

    def on_topology(self, name: str, n: int, **params: int) -> "ExperimentBuilder":
        """Run on any registered topology (see :mod:`repro.topology.registry`).

        Validated eagerly: the spec must support the topology and the size,
        and the topology must be constructible for ``(n, params)`` — so a
        bad combination fails in the chain, not mid-run.  Nothing is built
        here; the population is constructed once per trial, in the worker.
        """
        self._spec.require_topology(name)
        self._spec.require_supported(n)
        from repro.topology.registry import validate_topology

        validate_topology(name, n, **params)
        self._topology = name
        self._topology_params = dict(params)
        self._n = n
        return self

    def from_family(self, family: str) -> "ExperimentBuilder":
        """Draw initial configurations from a named family of the spec."""
        self._spec.require_family(family)
        self._family = family
        return self

    def from_adversarial(self) -> "ExperimentBuilder":
        """Uniform adversarial starts (the literature's default adversary)."""
        return self.from_family("adversarial")

    def from_random(self) -> "ExperimentBuilder":
        """Independently random starts (alias of the adversarial family)."""
        return self.from_family("random")

    def until_safe(self) -> "ExperimentBuilder":
        """Stop each trial at the spec's safety/stability predicate (default)."""
        return self

    # ------------------------------------------------------------------ #
    # Phased scenarios (perturb and re-converge)
    # ------------------------------------------------------------------ #
    def scenario(self, value) -> "ExperimentBuilder":
        """Run a whole phased scenario per trial (see :mod:`repro.scenario`).

        ``value`` is a catalog string (``"corrupt-recover:k=2"`` — the CLI's
        ``--scenario`` grammar), a canonical phase tuple, a
        :class:`~repro.scenario.spec.ScenarioSpec`, or a list of phase
        mappings.  Replaces anything a previous ``then_*`` chain staged.
        """
        if isinstance(value, str):
            canonical = parse_scenario(value)
        else:
            canonical = normalize_scenario(value)
        self._scenario_phases = list(canonical)
        self._pending_perturbation = None
        return self

    def _stage_perturbation(self, name: str, params: Tuple) -> "ExperimentBuilder":
        """Stage one perturbation; the next ``then_converge``/``then_run``
        closes it into a phase.  The first staged perturbation implicitly
        prepends today's plain convergence phase (perturb *after* the system
        has stabilized), and staging twice in a row closes the earlier one
        with a default converge phase."""
        if not self._scenario_phases and self._pending_perturbation is None:
            self._scenario_phases.append(DEGENERATE_PHASE)
        if self._pending_perturbation is not None:
            staged_name, staged_params = self._pending_perturbation
            self._scenario_phases.append((staged_name, staged_params, "converge", 0))
        self._pending_perturbation = (name, params)
        return self

    def then_corrupt(self, k: int = 1) -> "ExperimentBuilder":
        """After the previous phase, corrupt ``k`` agent states at random."""
        return self._stage_perturbation("corrupt-states", (("k", k),))

    def then_churn(self, leave: int = 1, join: int = 1) -> "ExperimentBuilder":
        """After the previous phase, ``leave`` agents depart and ``join``
        fresh agents arrive (the topology re-wires at the new size)."""
        return self._stage_perturbation("churn", (("join", join), ("leave", leave)))

    def then_bias(self, weight: int = 4, hot: int = 0) -> "ExperimentBuilder":
        """After the previous phase, bias the scheduler: a hot arc set is
        ``weight`` times likelier per draw (``hot=0`` = a quarter of arcs)."""
        params = (("weight", weight),) if hot == 0 else (("hot", hot), ("weight", weight))
        return self._stage_perturbation("bias", params)

    def then_converge(self, max_steps: int = 0) -> "ExperimentBuilder":
        """Close the staged perturbation (if any) with a re-convergence
        phase; ``max_steps=0`` inherits the chain's per-trial budget."""
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        name, params = self._pending_perturbation or ("", ())
        self._pending_perturbation = None
        self._scenario_phases.append((name, params, "converge", max_steps))
        return self

    def then_run(self, steps: int) -> "ExperimentBuilder":
        """Close the staged perturbation (if any) with a fixed-length phase:
        exactly ``steps`` steps, no stop predicate."""
        if steps < 1:
            raise ValueError(f"then_run steps must be >= 1, got {steps}")
        name, params = self._pending_perturbation or ("", ())
        self._pending_perturbation = None
        self._scenario_phases.append((name, params, "run", steps))
        return self

    def _scenario_value(self) -> CanonicalScenario:
        """The chain's canonical scenario (a dangling ``then_corrupt(...)``
        etc. is closed with a default re-convergence phase)."""
        phases = list(self._scenario_phases)
        if self._pending_perturbation is not None:
            name, params = self._pending_perturbation
            phases.append((name, params, "converge", 0))
        return normalize_scenario(tuple(phases))

    def trials(self, count: int) -> "ExperimentBuilder":
        """Number of independent trials."""
        if count < 1:
            raise ValueError(f"trials must be >= 1, got {count}")
        self._trials = count
        return self

    def seed(self, value: int) -> "ExperimentBuilder":
        """Master seed; every trial derives its own streams from it."""
        self._seed = value
        return self

    def max_steps(self, budget: int) -> "ExperimentBuilder":
        """Step budget per trial."""
        if budget < 0:
            raise ValueError(f"max_steps must be non-negative, got {budget}")
        self._max_steps = budget
        return self

    def check_interval(self, steps: int) -> "ExperimentBuilder":
        """How often the stop predicate is evaluated."""
        if steps < 1:
            raise ValueError(f"check_interval must be >= 1, got {steps}")
        self._check_interval = steps
        return self

    def kappa_factor(self, factor: int) -> "ExperimentBuilder":
        """The paper's constant c1 (P_PL only; ignored by the baselines)."""
        if factor < 1:
            raise ValueError(f"kappa_factor must be >= 1, got {factor}")
        self._kappa_factor = factor
        return self

    def engine(self, mode: str) -> "ExperimentBuilder":
        """Pick the simulation engine: ``"auto"`` (default), ``"step"``, or
        ``"batched"``.

        ``"auto"`` runs the batched engine's lazily filled table for every
        simulated spec; trial outcomes are bit-identical on both engines.
        An unknown name fails here rather than mid-run.
        """
        resolve_engine(mode)
        self._engine = mode
        return self

    def parallel(self, workers: Optional[int] = None) -> "ExperimentBuilder":
        """Fan trials out over ``workers`` processes (``None`` = os.cpu_count)."""
        import os

        self._workers = workers if workers is not None else (os.cpu_count() or 1)
        if self._workers < 1:
            raise ValueError(f"workers must be >= 1, got {self._workers}")
        return self

    def serial(self) -> "ExperimentBuilder":
        """Run trials in-process (the default)."""
        self._workers = 1
        return self

    def store(self, target, write: bool = True) -> "ExperimentBuilder":
        """Serve and persist trials through a content-addressed results store.

        ``target`` is a store root path or an existing
        :class:`repro.store.ResultsStore` (``write`` is ignored for the
        latter — the store object carries its own writability); ``None``
        turns the store off (the default).  Cached trials are bit-identical
        to freshly executed ones, and a run with more trials than the
        stored record tops up only the missing tail.
        """
        from repro.store import ResultsStore

        if target is None or isinstance(target, ResultsStore):
            self._store = target
        else:
            self._store = ResultsStore(target, write=write)
        return self

    def no_store_write(self) -> "ExperimentBuilder":
        """Make this chain's store use read-only (serve hits, persist nothing).

        Scoped to the builder: a caller-provided store object is replaced
        by a read-only view of the same root, never mutated — other runs
        sharing that object keep their writability (and their counters).
        """
        if self._store is None:
            raise ValueError("no_store_write() requires a store; call .store() first")
        if self._store.write:
            from repro.store import ResultsStore

            self._store = ResultsStore(self._store.root, write=False)
        return self

    # ------------------------------------------------------------------ #
    # Introspection and execution
    # ------------------------------------------------------------------ #
    def build_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` this chain will run with."""
        return ExperimentConfig(
            sizes=(self._n,),
            trials=self._trials,
            max_steps=self._max_steps,
            check_interval=self._check_interval,
            kappa_factor=self._kappa_factor,
            seed=self._seed,
            engine=self._engine,
            topology=self._topology,
            topology_params=freeze_topology_params(self._topology_params),
            scenario=self._scenario_value(),
        )

    def describe(self) -> Dict[str, object]:
        """The chain's settings as a plain dict (no execution)."""
        return {
            "spec": self._spec.name,
            "population_size": self._n,
            "topology": self._topology,
            "topology_params": dict(self._topology_params),
            "family": self._family,
            "scenario": scenario_to_json(self._scenario_value()),
            "trials": self._trials,
            "seed": self._seed,
            "max_steps": self._max_steps,
            "check_interval": self._check_interval,
            "kappa_factor": self._kappa_factor,
            "workers": self._workers,
            "engine": self._engine,
            "store": None if self._store is None else str(self._store.root),
        }

    def run(self) -> ExperimentResult:
        """Execute the configured trials and return the typed result."""
        config = self.build_config()
        if config.scenario:
            # Fail in the chain, not mid-run: every phase's perturbation,
            # parameters, and churn-resized population must be feasible.
            from repro.scenario.runtime import validate_scenario

            validate_scenario(config.scenario, self._spec, self._n, config)
        tasks = trial_tasks(
            self._spec.name, self._n, config, self._family,
            rng_label=self._spec.rng_label or self._spec.name,
        )
        started = time.perf_counter()
        outcomes = run_trials(tasks, workers=self._workers, store=self._store)
        wall_time = time.perf_counter() - started
        return ExperimentResult(
            spec=self._spec.name,
            # The workers report the protocol's display name with each
            # outcome, so no throwaway instance is built here just for it.
            protocol=outcomes[0].protocol_name or self._spec.name,
            population_size=self._n,
            family=self._family,
            seed=self._seed,
            max_steps=self._max_steps,
            workers=self._workers,
            trials=tuple(outcomes),
            wall_time=wall_time,
            topology=self._topology,
            topology_params=freeze_topology_params(self._topology_params),
            scenario=config.scenario,
        )


def experiment(spec_name: str) -> ExperimentBuilder:
    """Entry point of the fluent API: ``experiment("ppl").on_ring(64)...``."""
    return ExperimentBuilder(spec_name)
