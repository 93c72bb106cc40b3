"""The :class:`ProtocolSpec` registry: every runnable protocol, declaratively.

A :class:`ProtocolSpec` names the five ingredients of a run once: a
protocol factory, a population, an initial-configuration family, a stop
predicate, and (for the oracle baseline) an oracle factory.
:func:`run_spec` then runs *any* registered protocol with one generic code
path, and the CLI's ``run``/``list`` commands, the fluent
:mod:`repro.api.builder`, and the parallel :mod:`repro.api.executor` all
drive the same registry.

Two kinds of spec exist:

* **simulated** — has a ``factory`` and a ``stop_predicate`` and is executed
  by the trial runner (``ppl``, ``yokota2021``, ``fischer-jiang``,
  ``angluin-modk``);
* **analytic** — has an ``analytic_model`` instead (``chen-chen``, whose
  super-exponential convergence cannot be simulated, and ``thue-morse``, the
  certified string substrate underneath it).  ``repro-ssle run`` evaluates
  the model so every listed spec is runnable.

Registering a new protocol is one :func:`register` call; nothing in the
experiments, CLI, or builder needs editing.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.convergence import ConvergenceResult
from repro.api.config import ExperimentConfig
from repro.api.executor import BatchRequest, TrialResult, batch_tasks, run_trials
from repro.core.configuration import Configuration, random_configuration
from repro.core.fast_simulator import ENGINES, BatchedSimulation
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource
from repro.core.simulator import Oracle, Simulation
from repro.topology.graph import Population
from repro.topology.registry import (
    DEFAULT_TOPOLOGY,
    build_topology,
    get_topology_spec,
)
from repro.topology.ring import DirectedRing

#: Builds a protocol instance for one population size under one config.
ProtocolFactory = Callable[[int, ExperimentConfig], Protocol]
#: Builds an initial configuration: (protocol, n, rng) -> Configuration.
ConfigurationFamily = Callable[[Protocol, int, RandomSource], Configuration]
#: Builds the per-protocol stop predicate.  Factories take the protocol
#: instance and may additionally accept the population (second positional
#: parameter) when convergence is topology-dependent; see
#: :meth:`ProtocolSpec.build_stop_predicate`.
PredicateFactory = Callable[..., Callable[[Sequence], bool]]
#: Builds a fresh oracle for one simulation of the population.
OracleFactory = Callable[[Population], Oracle]
#: Evaluates an analytic (non-simulable) model at one population size.
AnalyticModel = Callable[[int, ExperimentConfig], Dict[str, object]]


def _any_ring(n: int) -> bool:
    return n >= 2


def _positional_arity(function: Callable) -> float:
    """How many positional arguments ``function`` declares: infinite with
    ``*args``, and 0 when it has no signature (builtins, some partials)."""
    try:
        parameters = inspect.signature(function).parameters.values()
    except (TypeError, ValueError):  # builtins/partials without signatures
        return 0
    arity = 0
    for parameter in parameters:
        if parameter.kind is parameter.VAR_POSITIONAL:
            return math.inf
        if parameter.kind in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD):
            arity += 1
    return arity


_cached_arity = functools.lru_cache(maxsize=256)(_positional_arity)


def _accepts(function: Callable, count: int) -> bool:
    """True when ``function`` declares ``count`` or more positional
    parameters.  A spec's builders are called once per trial, so the answer
    is cached per callable; an unhashable one is read from its signature on
    every call."""
    try:
        arity = _cached_arity(function)
    except TypeError:  # unhashable: no cache key
        arity = _positional_arity(function)
    return arity >= count


@dataclass(frozen=True)
class CheckPolicy:
    """How :mod:`repro.check.model` may verify one spec's claims.

    The model checker proves closure / stabilization reachability /
    livelock freedom on the explicit configuration graph; this policy is
    where a spec scopes those claims to what it actually asserts.  Lives
    here (not in :mod:`repro.check`) so specs can declare a policy without
    the registry importing the checker.
    """

    #: Non-None opts the spec out of model checking entirely, with the
    #: reported reason (e.g. a state space no enumeration cap can hold,
    #: or convergence semantics outside the pairwise relation).
    skip_reason: Optional[str] = None
    #: Topologies on which the stop predicate is claimed to be *absorbing*
    #: (closure).  ``None`` claims closure everywhere; protocols whose
    #: off-ring predicate detects an event rather than an invariant list
    #: only the topologies where the invariant form applies — closure is
    #: still measured elsewhere, but reported ``not_claimed`` instead of
    #: ``violated``.
    closure_topologies: Optional[Tuple[str, ...]] = None
    #: Enumeration cap for the checker's encoder build (per-spec override
    #: for protocols whose reachable space is larger than the encoder's
    #: default but still checkable).
    max_states: int = 512
    #: Executor trials the quantitative cross-validation gate runs when
    #: comparing the simulated mean against the exact expected hitting
    #: time (``repro-ssle check --quant``).  The gate is deterministic for
    #: a fixed config seed, so this trades gate runtime against the width
    #: of the standard-error band, not against flakiness.
    quant_trials: int = 200
    #: z-score tolerance of that gate: how many standard errors the
    #: simulated mean may sit from the exact value before the point is
    #: reported ``violated``.
    quant_z: float = 4.0


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the generic runner needs to know about one protocol."""

    name: str
    summary: str
    factory: Optional[ProtocolFactory] = None
    families: Mapping[str, ConfigurationFamily] = field(default_factory=dict)
    default_family: str = "adversarial"
    stop_predicate: Optional[PredicateFactory] = None
    #: Builds the oracle both engines consult (see
    #: :class:`~repro.core.simulator.Oracle`); ``None`` for specs whose
    #: behaviour is the transition function alone.
    oracle: Optional[OracleFactory] = None
    #: Topology names (see :mod:`repro.topology.registry`) this protocol is
    #: defined on; ``None`` means any registered topology.  Protocols whose
    #: correctness argument needs the ring (``ppl``, ``yokota2021``) pin
    #: themselves to ``("directed-ring",)`` so a mismatched topology fails
    #: fast instead of silently running a meaningless experiment.
    supported_topologies: Optional[Tuple[str, ...]] = None
    supports: Callable[[int], bool] = _any_ring
    supported_note: str = "any ring size n >= 2"
    #: Prefix of the master RNG label (defaults to ``name``); a run may
    #: override it per call (``run_spec(..., rng_label=...)``).
    rng_label: Optional[str] = None
    analytic_model: Optional[AnalyticModel] = None
    reference: str = ""
    #: Model-checking policy (see :class:`CheckPolicy`); ``None`` means
    #: the checker's defaults — every claim checked on every supported
    #: topology.
    check: Optional[CheckPolicy] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("ProtocolSpec.name must be non-empty")
        if self.analytic_model is None:
            if self.factory is None or self.stop_predicate is None:
                raise ValueError(
                    f"spec {self.name!r} needs a factory and a stop_predicate "
                    "(or an analytic_model)"
                )
            if not self.families:
                raise ValueError(f"spec {self.name!r} declares no configuration families")
            if self.default_family not in self.families:
                raise ValueError(
                    f"spec {self.name!r}: default family {self.default_family!r} "
                    f"not in {sorted(self.families)}"
                )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_simulated(self) -> bool:
        """True for executable specs; False for analytic models."""
        return self.analytic_model is None

    @property
    def kind(self) -> str:
        return "simulated" if self.is_simulated else "analytic"

    def family_names(self) -> List[str]:
        return sorted(self.families)

    def require_supported(self, n: int) -> None:
        if not self.supports(n):
            raise ValueError(
                f"protocol {self.name!r} does not support n={n} "
                f"(requires: {self.supported_note})"
            )

    def require_family(self, family: str) -> None:
        if family not in self.families:
            raise KeyError(
                f"protocol {self.name!r} has no configuration family {family!r}; "
                f"known families: {self.family_names()}"
            )

    def require_topology(self, topology: str) -> None:
        """Reject topologies this protocol is not defined on (fail fast)."""
        get_topology_spec(topology)  # unknown names error with the known list
        if (self.supported_topologies is not None
                and topology not in self.supported_topologies):
            raise ValueError(
                f"protocol {self.name!r} does not support topology "
                f"{topology!r} (supported: "
                f"{', '.join(self.supported_topologies)})"
            )

    # ------------------------------------------------------------------ #
    # Trial ingredients (called by the executor, possibly in a worker)
    # ------------------------------------------------------------------ #
    def build_protocol(self, n: int, config: ExperimentConfig) -> Protocol:
        if self.factory is None:
            raise ValueError(f"protocol {self.name!r} is analytic and cannot be simulated")
        self.require_supported(n)
        return self.factory(n, config)

    def build_population(self, n: int,
                         config: Optional[ExperimentConfig] = None) -> Population:
        """Build the population graph ``config`` selects (default: the ring).

        Called per trial, in every worker: the population is a pure function
        of ``(config.topology, config.topology_params, n)``, which is what
        keeps parallel execution bit-identical to serial execution on every
        topology (seeded random-regular constructions included).
        """
        topology = config.topology if config is not None else DEFAULT_TOPOLOGY
        params = config.topology_kwargs() if config is not None else {}
        self.require_topology(topology)
        return build_topology(topology, n, **params)

    def build_configuration(self, family: str, protocol: Protocol, n: int,
                            rng: RandomSource,
                            population: Optional[Population] = None,
                            ) -> Configuration:
        """Draw the initial configuration from the named family.

        Families historically received ``(protocol, n, rng)``; families whose
        worst case is topology-dependent (e.g. ``packed-row``, which packs
        leaders into one torus row) declare a fourth positional parameter and
        receive the population too.  Dispatch is by declared arity — the same
        rule as :meth:`build_stop_predicate` — so an error raised *inside* a
        family is never misread as a signature mismatch.
        """
        self.require_family(family)
        builder = self.families[family]
        if _accepts(builder, 4):
            if population is None:
                raise ValueError(
                    f"family {family!r} of protocol {self.name!r} needs the "
                    "population; pass population= to build_configuration"
                )
            return builder(protocol, n, rng, population)
        return builder(protocol, n, rng)

    def build_stop_predicate(self, protocol: Protocol,
                             population: Population) -> Callable[[Sequence], bool]:
        """Build the per-trial stop predicate.

        A spec's ``stop_predicate`` factory historically received only the
        protocol instance; factories whose convergence criterion depends on
        the population graph (e.g. ``angluin-modk``, whose label-stability
        notion is ring-specific) declare a second positional parameter and
        receive the population too.  Dispatch is by declared arity, not by
        catching ``TypeError``, so an error raised *inside* a factory is
        never misread as a signature mismatch.
        """
        if self.stop_predicate is None:
            raise ValueError(
                f"protocol {self.name!r} is analytic and has no stop predicate"
            )
        if _accepts(self.stop_predicate, 2):
            return self.stop_predicate(protocol, population)
        return self.stop_predicate(protocol)

    def build_simulation(self, protocol: Protocol, population: Population,
                         initial: Configuration, rng: RandomSource,
                         engine: str = "auto",
                         scheduler=None,
                         ) -> "Simulation | BatchedSimulation":
        """Build the simulation for one trial on the resolved engine.

        ``auto`` runs every spec on the batched engine's lazily filled
        table.  A spec's ``oracle`` is built fresh for the population and
        handed to whichever engine runs; both consult it at the same steps.
        Both engines draw their seed as exactly one ``rng.randint`` in the
        same position, so the random streams — and therefore every trial
        result — are bit-identical whichever engine ends up running.

        ``scheduler`` (an explicit :class:`~repro.core.scheduler.Scheduler`,
        e.g. the scenario runtime's biased-arc scheduler) replaces the
        engines' internal uniformly random drawing.  In scheduler mode *no*
        engine consumes a draw from ``rng`` — consistently across engines,
        so cross-engine identity holds here too.
        """
        engine_class = Simulation if resolve_engine(engine) == "step" else BatchedSimulation
        oracle = self.oracle(population) if self.oracle is not None else None
        if scheduler is not None:
            return engine_class(protocol, population, initial,
                                scheduler=scheduler, oracle=oracle)
        return engine_class(protocol, population, initial,
                            rng=rng.randint(0, 2 ** 31 - 1), oracle=oracle)


def resolve_engine(engine: str = "auto") -> str:
    """The engine a request runs on: ``"step"`` when asked for, else the
    batched engine's table, which runs every simulated spec."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return "step" if engine == "step" else "batched"


# ---------------------------------------------------------------------- #
# The registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
    """Add a spec to the registry; ``replace=False`` rejects duplicates."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"protocol {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (test hygiene; unknown names are ignored)."""
    _REGISTRY.pop(name, None)


def get_spec(name: str) -> ProtocolSpec:
    """Look up a spec by name, with the known names in the error message."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; registered: {spec_names()}"
        ) from None


def spec_names() -> List[str]:
    """Registered spec names, sorted."""
    return sorted(_REGISTRY)


def list_specs() -> List[ProtocolSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in spec_names()]


# ---------------------------------------------------------------------- #
# The generic runner (replaces the per-protocol run_* adapters)
# ---------------------------------------------------------------------- #
def run_spec(
    name: str,
    n: int,
    config: Optional[ExperimentConfig] = None,
    family: Optional[str] = None,
    trials: Optional[int] = None,
    workers: Optional[int] = None,
    rng_label: Optional[str] = None,
    engine: Optional[str] = None,
    store=None,
) -> ConvergenceResult:
    """Run any registered simulated protocol: the one generic adapter.

    Equivalent to the old hand-written ``run_<protocol>`` functions, for every
    protocol at once: build the protocol for ``n``, draw each trial's initial
    configuration from ``family`` (the spec's default when omitted), and run
    until the spec's stop predicate holds.  ``workers`` > 1 fans the trials
    out over processes with identical results (see :mod:`repro.api.executor`).
    ``engine`` overrides ``config.engine`` (default ``"auto"``: the lazily
    filled batched table; trial outcomes are bit-identical on the step
    engine).
    ``store`` (a :class:`repro.store.ResultsStore`) serves cached trials
    from disk and persists fresh ones, again with bit-identical results.
    """
    spec = get_spec(name)
    config = config or ExperimentConfig()
    if engine is not None:
        config = replace(config, engine=engine)
    # batch_tasks carries the shared fail-fast validation (simulated-ness,
    # engine, size, topology, family) and the seed derivation — the same
    # code path sweeps take through run_batches, so a check added there can
    # never silently skip standalone runs, or vice versa.
    tasks = batch_tasks(BatchRequest(
        spec_name=name, population_size=n, config=config, family=family,
        trials=trials, rng_label=rng_label,
    ))
    outcomes = run_trials(tasks, workers=workers, store=store)
    # The display name rides along with every trial outcome (the workers
    # build the protocol anyway), so no throwaway instance is constructed
    # here just to read `.name`.
    return collect_convergence(outcomes[0].protocol_name or spec.name, n, outcomes)


def collect_convergence(protocol_name: str, n: int,
                        outcomes: Sequence[TrialResult]) -> ConvergenceResult:
    """Fold per-trial outcomes into the legacy :class:`ConvergenceResult` shape."""
    result: ConvergenceResult = ConvergenceResult(
        protocol_name=protocol_name,
        population_size=n,
        trials=len(outcomes),
    )
    for outcome in outcomes:
        if outcome.converged:
            result.steps.append(outcome.steps)
        else:
            result.failures += 1
    return result


def runner_for(name: str, family: Optional[str] = None,
               rng_label: Optional[str] = None):
    """A ``(n, config) -> ConvergenceResult`` adapter for sweep-style callers."""

    def runner(n: int, config: ExperimentConfig) -> ConvergenceResult:
        return run_spec(name, n, config, family=family, rng_label=rng_label)

    return runner


def evaluate_analytic(name: str, n: int,
                      config: Optional[ExperimentConfig] = None) -> Dict[str, object]:
    """Evaluate an analytic spec's model at ``n`` (errors on simulated specs)."""
    spec = get_spec(name)
    if spec.is_simulated:
        raise ValueError(f"protocol {name!r} is simulated; use run_spec() instead")
    spec.require_supported(n)
    return dict(spec.analytic_model(n, config or ExperimentConfig()))


# ---------------------------------------------------------------------- #
# Built-in specs
# ---------------------------------------------------------------------- #
def _ppl_factory(n: int, config: ExperimentConfig):
    from repro.protocols.ppl import PPLProtocol

    return PPLProtocol.for_population(n, kappa_factor=config.kappa_factor)


def _ppl_families() -> Dict[str, ConfigurationFamily]:
    from repro.adversary.initial_configs import ADVERSARIES

    def wrap(adversary):
        return lambda protocol, n, rng: adversary(n, protocol.params, rng)

    families = {name.replace("_", "-"): wrap(fn) for name, fn in ADVERSARIES.items()}
    # The default adversary of the literature under the builder's names:
    families["adversarial"] = families["uniform"]
    families["random"] = families["uniform"]
    return families


def _random_family(protocol: Protocol, n: int, rng: RandomSource) -> Configuration:
    return random_configuration(protocol, n, rng)


def _packed_row_family(protocol: Protocol, n: int, rng: RandomSource,
                       population: Population) -> Configuration:
    """Topology-aware worst case: all leaders packed into one torus row
    (a contiguous leader run on non-grid populations)."""
    from repro.adversary.initial_configs import packed_leader_row

    return packed_leader_row(protocol, n, rng, population)


def _stable_predicate(protocol):
    return protocol.is_stable


def _angluin_predicate(protocol, population):
    """Ring runs keep the strict label-stability criterion; any other
    topology measures the first sole undisputed leader instead (the label
    half of `is_stable` walks agents in ring order and is unsatisfiable on
    graphs with leader-free cycles of length not divisible by k — see
    AngluinModKProtocol.has_undisputed_leader)."""
    if isinstance(population, DirectedRing):
        return protocol.is_stable
    return protocol.has_undisputed_leader


def _yokota_factory(n: int, config: ExperimentConfig):
    from repro.protocols.baselines.yokota2021 import Yokota2021Protocol

    return Yokota2021Protocol.for_population(n)


def _fischer_jiang_factory(n: int, config: ExperimentConfig):
    from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol

    return FischerJiangProtocol()


def _fischer_jiang_oracle(population: Population):
    from repro.protocols.baselines.fischer_jiang import OracleOmega

    return OracleOmega(report_interval=population.size)


def _angluin_spec(k: int, name: str) -> ProtocolSpec:
    from repro.protocols.baselines.angluin_modk import AngluinModKProtocol

    return ProtocolSpec(
        name=name,
        summary=f"[5] Angluin et al.: constant-state SS-LE when k={k} does not divide n",
        factory=lambda n, config: AngluinModKProtocol(k),
        families={"adversarial": _random_family, "random": _random_family,
                  "packed-row": _packed_row_family},
        stop_predicate=_angluin_predicate,
        supports=lambda n: n >= 2 and n % k != 0,
        supported_note=f"population sizes n >= 2 with n not divisible by k={k}",
        rng_label="angluin",
        reference="[5] Angluin, Aspnes, Fischer, Jiang",
        # Off the directed ring the stop predicate is has_undisputed_leader
        # — an *event* ("a sole leader exists right now"), not an invariant
        # — so closure is claimed, and model-checked, only where is_stable
        # applies.  Reachability and livelock freedom are claimed everywhere.
        check=CheckPolicy(closure_topologies=("directed-ring",)),
    )


def ensure_angluin_spec(k: int) -> ProtocolSpec:
    """The mod-``k`` spec, registering a variant on demand for ``k != 2``."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    name = "angluin-modk" if k == 2 else f"angluin-mod{k}"
    if name in _REGISTRY:
        return _REGISTRY[name]
    return register(_angluin_spec(k, name))


def _chen_chen_model(n: int, config: ExperimentConfig) -> Dict[str, object]:
    from repro.protocols.baselines.chen_chen import ChenChenModel, safe_embedding
    from repro.protocols.baselines.thue_morse import is_cube_free

    model = ChenChenModel()
    return {
        "protocol": model.name,
        "analytic": True,
        "states": model.state_space_size(),
        "expected_steps_model": model.expected_steps(n),
        "safe_embedding_cube_free": is_cube_free(safe_embedding(n)),
        "note": "super-exponential convergence; model only, not a measurement",
    }


def _thue_morse_model(n: int, config: ExperimentConfig) -> Dict[str, object]:
    from repro.protocols.baselines.chen_chen import leaderless_embedding_has_cube
    from repro.protocols.baselines.thue_morse import is_cube_free, thue_morse_prefix

    prefix = thue_morse_prefix(n)
    return {
        "protocol": "ThueMorse(substrate)",
        "analytic": True,
        "prefix": prefix,
        "prefix_cube_free": is_cube_free(prefix),
        "leaderless_ring_has_cube": leaderless_embedding_has_cube(prefix),
        "note": "string substrate of the Chen-Chen baseline; certified checks",
    }


def _register_builtin_specs() -> None:
    register(ProtocolSpec(
        name="ppl",
        summary="this work: P_PL, polylog(n)-state SS-LE in O(n^2 log n) steps",
        factory=_ppl_factory,
        families=_ppl_families(),
        stop_predicate=_stable_predicate,
        # P_PL's segments/tokens are defined by the ring orientation; running
        # it elsewhere would be a category error, so mismatches fail fast.
        supported_topologies=("directed-ring",),
        rng_label="ppl",
        reference="PODC 2023 (the reproduced paper)",
        # P_PL's per-agent space is polylog(n) *asymptotically* but holds
        # segment IDs and counters whose product is in the millions even at
        # psi=2 — no enumeration cap can hold it, so its self-stabilization
        # coverage stays dynamic (the adversarial sweep experiments).
        check=CheckPolicy(skip_reason=(
            "P_PL's state space (segment IDs x counters, millions of states "
            "even at psi=2) exceeds any enumeration cap; stabilization "
            "coverage is dynamic, via the adversarial sweeps")),
    ))
    register(ProtocolSpec(
        name="yokota2021",
        summary="[28] Yokota et al.: O(n)-state SS-LE baseline in Theta(n^2) steps",
        factory=_yokota_factory,
        families={"adversarial": _random_family, "random": _random_family},
        stop_predicate=_stable_predicate,
        supported_topologies=("directed-ring",),
        rng_label="yokota",
        reference="[28] Yokota, Sudo, Masuzawa",
    ))
    register(ProtocolSpec(
        name="fischer-jiang",
        summary="[15] Fischer-Jiang: constant-state SS-LE with the eventual leader-detector oracle",
        factory=_fischer_jiang_factory,
        families={"adversarial": _random_family, "random": _random_family,
                  "packed-row": _packed_row_family},
        stop_predicate=_stable_predicate,
        # The oracle inspects the global configuration every n steps.
        oracle=_fischer_jiang_oracle,
        # The oracle/bullet machinery is topology-agnostic (the original
        # paper states the oracle result for general graphs), so every
        # registered topology is accepted.
        rng_label="fj",
        reference="[15] Fischer, Jiang",
        # Convergence is driven by the oracle's global eventually-correct
        # reports, which the engines apply outside the pairwise transition
        # relation — the configuration graph of the raw tables would verify
        # a different protocol than the one that runs.
        check=CheckPolicy(skip_reason=(
            "convergence depends on the eventual leader-detector oracle, "
            "which the engines apply outside the pairwise transition "
            "relation the checker enumerates")),
    ))
    register(_angluin_spec(2, "angluin-modk"))
    register(ProtocolSpec(
        name="chen-chen",
        summary="[11] Chen-Chen: constant-state SS-LE, super-exponential time (analytic model)",
        analytic_model=_chen_chen_model,
        reference="[11] Chen, Chen",
    ))
    register(ProtocolSpec(
        name="thue-morse",
        summary="Thue-Morse cube-freeness substrate of [11] (certified analytic checks)",
        analytic_model=_thue_morse_model,
        reference="[27] Thue",
    ))


_register_builtin_specs()
