"""Cross-check suite: the batched engine must be bit-identical to the step engine.

The contract that makes the batched engine safe to select automatically:
driven by the same arc stream (or the same seed), :class:`BatchedSimulation`
produces the same final configuration, step count, effective-step count,
per-agent interaction counts, and leader count as :class:`Simulation` — for
every registered simulated spec on every topology it supports, built
through ``spec.build_simulation`` so that ``fischer-jiang`` carries its
oracle.  The engine fills its transition table lazily, so specs whose state
space cannot be enumerated (``ppl``, ``yokota2021`` from n=17) run on it
too, and a table forced past its memory cap stays bit-identical.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentConfig, experiment, get_spec, list_specs, run_spec
from repro.api.registry import resolve_engine
from repro.core import fast_simulator
from repro.core.configuration import Configuration
from repro.core.encoding import state_key
from repro.core.errors import InvalidParameterError, ScheduleExhaustedError
from repro.core.fast_simulator import ENGINES, BatchedSimulation, JointTable
from repro.core.rng import RandomSource
from repro.core.scheduler import SequenceScheduler
from repro.core.simulator import Simulation
from repro.protocols.baselines.fischer_jiang import FischerJiangState, OracleOmega
from repro.topology.registry import topology_names, validate_topology

#: Arc-stream length for the replay cross-checks: long enough to exercise
#: leader creation, elimination wars, and the converged (no-op) regime.
STREAM_LENGTH = 20_000


def _spec_topology_grid():
    """Every (simulated spec, supported topology) pair in the registry."""
    for spec in list_specs():
        if not spec.is_simulated:
            continue
        names = (spec.supported_topologies
                 if spec.supported_topologies is not None else topology_names())
        for topology in names:
            yield spec.name, topology


SPEC_TOPOLOGY_GRID = sorted(_spec_topology_grid())


def _grid_size(spec, topology: str) -> int:
    """The smallest size from 8 that the spec and the topology both take."""

    def fits(k: int) -> bool:
        if not spec.supports(k):
            return False
        try:
            validate_topology(topology, k)
        except ValueError:
            return False
        return True

    return next(k for k in range(8, 40) if fits(k))


def _trial_ingredients(name: str, topology: str = "directed-ring", seed: int = 31):
    """Protocol, population, and initial configuration for one grid point."""
    spec = get_spec(name)
    config = ExperimentConfig(topology=topology)
    n = _grid_size(spec, topology)
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    initial = spec.build_configuration(
        spec.default_family, protocol, n, RandomSource(seed),
        population=population,
    )
    return spec, protocol, population, initial


def _both_engines(spec, protocol, population, initial, seed=0, arcs=None):
    """The step and the batched simulation of one spec (with its oracle,
    if any), drawing from ``seed`` or replaying ``arcs``."""
    return [
        spec.build_simulation(
            protocol, population, initial, RandomSource(seed), engine=engine,
            scheduler=SequenceScheduler(arcs) if arcs is not None else None)
        for engine in ("step", "batched")
    ]


@pytest.mark.parametrize("name,topology", SPEC_TOPOLOGY_GRID)
def test_batched_engine_is_bit_identical_on_the_same_arc_stream(name, topology):
    # No enumeration: large-state protocols (ppl) replay through the lazy
    # table exactly like the small ones.
    spec, protocol, population, initial = _trial_ingredients(name, topology)
    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    step_sim, batched = _both_engines(spec, protocol, population, initial, arcs=arcs)
    assert type(batched) is BatchedSimulation
    step_sim.run_sequence()
    batched.run_sequence()

    assert batched.states() == step_sim.states()
    assert batched.configuration().states() == step_sim.configuration().states()
    assert batched.steps == step_sim.steps == STREAM_LENGTH
    assert batched.metrics == step_sim.metrics  # steps, per-agent, effective
    assert batched.leader_count() == step_sim.leader_count()


@pytest.mark.parametrize("name,topology", SPEC_TOPOLOGY_GRID)
def test_batched_engine_matches_step_engine_from_the_same_seed(name, topology):
    """The internal block drawing consumes the same randrange stream as
    UniformRandomScheduler, so equal seeds give equal executions."""
    _assert_same_seed_runs_agree(*_trial_ingredients(name, topology))


def _assert_same_seed_runs_agree(spec, protocol, population, initial) -> None:
    step_sim, batched = _both_engines(spec, protocol, population, initial, seed=123)
    step_sim.run(7_500)
    batched.run(7_500)
    assert batched.states() == step_sim.states()
    assert batched.metrics == step_sim.metrics
    assert batched.leader_count() == step_sim.leader_count()


@pytest.mark.parametrize("name", ["ppl", "yokota2021"])
@pytest.mark.parametrize("n", [127, 128, 129])
def test_batched_engine_matches_step_engine_from_the_same_seed_around_a_power_of_two(name, n):
    """Directed rings with just under, exactly and just over 2**7 arcs: the
    arc draws take 7, 8 and 8 bits and reject 1/128, 1/2 and 127/256 of
    them."""
    spec = get_spec(name)
    config = ExperimentConfig()
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    assert population.num_arcs == n
    initial = spec.build_configuration(spec.default_family, protocol, n, RandomSource(3),
                                       population=population)
    _assert_same_seed_runs_agree(spec, protocol, population, initial)


@pytest.mark.parametrize("name", ["ppl", "yokota2021"])
def test_paper_protocols_match_the_step_engine_at_n32(name):
    """The Theorem 3.1 sweep's protocols, whose state spaces do not
    enumerate at n=32: same arc stream and same seed give the same states,
    steps, metrics, and leader count, and the same stop-predicate outcome."""
    spec = get_spec(name)
    config = ExperimentConfig()
    protocol = spec.build_protocol(32, config)
    population = spec.build_population(32, config)
    initial = spec.build_configuration(spec.default_family, protocol, 32,
                                       RandomSource(5))
    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    pairs = [
        (Simulation(protocol, population, initial, scheduler=SequenceScheduler(arcs)),
         BatchedSimulation(protocol, population, initial,
                           scheduler=SequenceScheduler(arcs))),
        (Simulation(protocol, population, initial, rng=123),
         BatchedSimulation(protocol, population, initial, rng=123)),
    ]
    for step_sim, batched in pairs:
        step_sim.run(STREAM_LENGTH)
        batched.run(STREAM_LENGTH)
        assert batched.states() == step_sim.states()
        assert batched.steps == step_sim.steps == STREAM_LENGTH
        assert batched.metrics == step_sim.metrics
        assert batched.leader_count() == step_sim.leader_count()
    predicate = spec.build_stop_predicate(protocol, population)
    step_run = Simulation(protocol, population, initial, rng=9).run_until(
        predicate, max_steps=400_000, check_interval=128)
    batched_run = BatchedSimulation(protocol, population, initial, rng=9).run_until(
        predicate, max_steps=400_000, check_interval=128)
    assert (batched_run.satisfied, batched_run.steps) == (step_run.satisfied, step_run.steps)
    assert batched_run.configuration.states() == step_run.configuration.states()


def test_the_joint_table_is_first_built_from_the_initial_states(monkeypatch):
    """The initial states do not count against the cap: with more distinct
    starting states than the cap, building the engine rebuilds nothing."""
    monkeypatch.setattr(fast_simulator, "MAX_CODED_STATES", 4)
    rebuilds = []
    rebuild = JointTable._rebuild

    def counted(self):
        rebuilds.append(self)
        rebuild(self)

    monkeypatch.setattr(JointTable, "_rebuild", counted)
    _, protocol, population, initial = _trial_ingredients("yokota2021")
    distinct = {state_key(state) for state in initial.states()}
    assert len(distinct) > fast_simulator.MAX_CODED_STATES
    batched = BatchedSimulation(protocol, population, initial, rng=3)
    assert not rebuilds
    batched.run(STREAM_LENGTH)
    assert rebuilds  # the cap still bounds the states coded after the build


@pytest.mark.parametrize("name", ["yokota2021"])
def test_table_forced_past_its_cap_stays_bit_identical(name, monkeypatch):
    """With the cap tiny the table is rebuilt over and over; a snapshot
    taken before a rebuild and restored after it resumes exactly.  (``ppl``
    runs on its stage tables: ``tests/ppl/test_stage_table.py``.)"""
    monkeypatch.setattr(fast_simulator, "MAX_CODED_STATES", 4)
    rebuilds = []
    rebuild = JointTable._rebuild

    def counted(self):
        rebuilds.append(self)
        rebuild(self)

    monkeypatch.setattr(JointTable, "_rebuild", counted)
    _, protocol, population, initial = _trial_ingredients(name)
    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    reference = Simulation(protocol, population, initial,
                           scheduler=SequenceScheduler(arcs))
    reference.run_sequence()
    batched = BatchedSimulation(protocol, population, initial,
                                scheduler=SequenceScheduler(arcs))
    batched.run(STREAM_LENGTH // 4)
    saved = batched.snapshot()
    captured = len(rebuilds)
    batched.run(STREAM_LENGTH // 4)
    assert len(rebuilds) > captured  # the codes were renumbered meanwhile
    batched.restore(saved)
    batched.run_sequence()
    assert batched.states() == reference.states()
    assert batched.steps == reference.steps == STREAM_LENGTH
    assert batched.metrics == reference.metrics
    assert batched.leader_count() == reference.leader_count()


def _all_followers(n: int) -> Configuration:
    return Configuration([FischerJiangState.follower() for _ in range(n)])


def test_oracle_runs_identically_on_both_engines_past_the_table_cap(monkeypatch):
    """All-follower Fischer–Jiang: the oracle must seed the leaders.  With
    the table rebuilt over and over, and a check interval that does not
    divide the oracle's report interval n, both engines stop at the same
    step in the same configuration."""
    monkeypatch.setattr(fast_simulator, "MAX_CODED_STATES", 4)
    rebuilds, reports = [], []
    rebuild = JointTable._rebuild
    report = OracleOmega.observe_and_report

    def counted_rebuild(self):
        rebuilds.append(self)
        rebuild(self)

    def counted_report(self, states):
        fired = report(self, states)
        reports.append(fired)
        return fired

    monkeypatch.setattr(JointTable, "_rebuild", counted_rebuild)
    monkeypatch.setattr(OracleOmega, "observe_and_report", counted_report)
    spec, protocol, population, _ = _trial_ingredients("fischer-jiang")
    n = population.size
    check_interval = 5
    assert n % check_interval and check_interval % n
    predicate = spec.build_stop_predicate(protocol, population)
    runs = []
    for simulation in _both_engines(spec, protocol, population, _all_followers(n), seed=3):
        run = simulation.run_until(predicate, max_steps=400_000,
                                   check_interval=check_interval)
        runs.append((run.satisfied, run.steps, run.configuration.states(),
                     simulation.metrics, simulation.leader_count()))
    assert rebuilds and any(reports)
    assert runs[0][0]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("engine", ["step", "batched"])
def test_snapshot_before_an_oracle_report_resumes_after_it(engine):
    """A snapshot two steps before the oracle's first report, restored after
    its second raised the flags, resumes exactly: the oracle's memory (a
    patience of one report) is rewound too, or it would fire at the first."""
    _, protocol, population, _ = _trial_ingredients("fischer-jiang")
    n = population.size
    initial = _all_followers(n)

    def build():
        simulation_class = Simulation if engine == "step" else BatchedSimulation
        return simulation_class(protocol, population, initial, rng=11,
                                oracle=OracleOmega(report_interval=n, patience=1))

    reference = build()
    reference.run(6 * n)
    resumed = build()
    resumed.run(n - 2)
    saved = resumed.snapshot()
    resumed.run(n + 2)
    assert all(state.absence for state in resumed.states())  # reported at 2n
    resumed.restore(saved)
    assert not any(state.absence for state in resumed.states())
    resumed.run(5 * n + 2)
    assert resumed.states() == reference.states()
    assert resumed.metrics == reference.metrics
    assert resumed.leader_count() == reference.leader_count()


class _Scrambler:
    """A test oracle that gives every agent a fresh random state at each
    report: many new codes at once, and leaders made and unmade."""

    def __init__(self, protocol, report_interval: int) -> None:
        self.report_interval = report_interval
        self._protocol = protocol
        self._rng = RandomSource(5)

    def observe_and_report(self, states) -> bool:
        for agent in range(len(states)):
            states[agent] = self._protocol.random_state(self._rng)
        return True


@pytest.mark.parametrize("name", ["angluin-modk", "yokota2021"])
def test_an_oracle_rewriting_every_agent_keeps_the_table_exact(name, monkeypatch):
    """Past the table's cap, the re-coded agents stay below the stride and
    the leader count follows the rewritten states."""
    monkeypatch.setattr(fast_simulator, "MAX_CODED_STATES", 4)
    _, protocol, population, initial = _trial_ingredients(name)
    step_sim, batched = [
        engine(protocol, population, initial, rng=7,
               oracle=_Scrambler(protocol, report_interval=37))
        for engine in (Simulation, BatchedSimulation)
    ]
    for _ in range(20):
        step_sim.run(STREAM_LENGTH // 20)
        batched.run(STREAM_LENGTH // 20)
        assert batched.leader_count() == step_sim.leader_count()
    assert batched.states() == step_sim.states()
    assert batched.metrics == step_sim.metrics


def test_run_until_semantics_match_the_step_engine():
    spec, protocol, population, initial = _trial_ingredients("angluin-modk")
    predicate = spec.build_stop_predicate(protocol, population)
    step_run = Simulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=400_000, check_interval=64
    )
    batched_run = BatchedSimulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=400_000, check_interval=64
    )
    assert batched_run.satisfied == step_run.satisfied
    assert batched_run.steps == step_run.steps
    assert batched_run.configuration.states() == step_run.configuration.states()


# ---------------------------------------------------------------------- #
# Stopping across table rebuilds
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["yokota2021"])
def test_run_until_survives_table_rebuilds(name, monkeypatch):
    """A run checked every step on the [28] baseline, with the table
    rebuilt mid-run, stops where the step loop stops.  (``ppl`` runs on its
    stage tables: ``tests/ppl/test_stage_table.py``.)"""
    monkeypatch.setattr(fast_simulator, "MAX_CODED_STATES", 4)
    rebuilds = []
    rebuild = JointTable._rebuild

    def counted(self):
        rebuilds.append(self)
        rebuild(self)

    monkeypatch.setattr(JointTable, "_rebuild", counted)
    spec, protocol, population, initial = _trial_ingredients(name)
    predicate = spec.build_stop_predicate(protocol, population)
    runs = [
        engine(protocol, population, initial, rng=5).run_until(
            predicate, max_steps=400_000, check_interval=1)
        for engine in (Simulation, BatchedSimulation)
    ]
    assert rebuilds
    assert runs[0].satisfied
    assert (runs[1].satisfied, runs[1].steps) == (runs[0].satisfied, runs[0].steps)
    assert runs[1].configuration.states() == runs[0].configuration.states()


def test_batched_step_reports_state_changes_and_counts():
    _, protocol, population, initial = _trial_ingredients("yokota2021")
    batched = BatchedSimulation(protocol, population, initial, rng=2)
    outcomes = [batched.step() for _ in range(50)]
    assert any(outcomes)
    assert batched.steps == 50
    assert sum(batched.metrics.interactions_per_agent.values()) == 100


def test_batched_sequence_exhaustion_leaves_consistent_counters():
    _, protocol, population, initial = _trial_ingredients("fischer-jiang")
    arcs = [population.sample_arc(RandomSource(9)) for _ in range(75)]
    batched = BatchedSimulation(protocol, population, initial,
                                scheduler=SequenceScheduler(arcs))
    batched.run_sequence()
    assert batched.steps == 75
    with pytest.raises(ScheduleExhaustedError):
        batched.step()
    assert batched.steps == 75  # the failed step was not recorded


@pytest.mark.parametrize("upper", [1, 2, 127, 128, 129, 1000])
def test_getrandbits_rejection_loop_consumes_the_same_stream_as_randrange(upper):
    """The batched engine runs randrange's rejection loop itself on the
    generator's getrandbits; it must consume the seeded stream identically."""
    reference, fast_source = RandomSource(99), RandomSource(99)
    getrandbits = fast_source.getrandbits_callable()
    bits = upper.bit_length()

    def draw() -> int:
        index = getrandbits(bits)
        while index >= upper:
            index = getrandbits(bits)
        return index

    assert [reference.randrange(upper) for _ in range(5000)] == \
           [draw() for _ in range(5000)]
    assert reference.getstate() == fast_source.getstate()


def test_batched_engine_keeps_lazy_populations_lazy():
    """The engine must index through arc_by_index on implicit arc sets
    rather than forcing a large complete graph to materialize its arcs."""
    from repro.core.configuration import random_configuration
    from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol
    from repro.topology.complete import CompleteGraph

    protocol = FischerJiangProtocol()
    graph = CompleteGraph(1_500)  # ~2.2M implicit arcs
    initial = random_configuration(protocol, graph.size, RandomSource(4))
    batched = BatchedSimulation(protocol, graph, initial, rng=4)
    batched.run(2_000)
    assert graph._materialized is None
    # Same draws as the step engine's uniformly random scheduler.
    reference = Simulation(protocol, graph, initial, rng=4)
    reference.run(2_000)
    assert graph._materialized is None
    assert batched.states() == reference.states()


def test_batched_engine_rejects_observers():
    _, protocol, population, initial = _trial_ingredients("fischer-jiang")
    batched = BatchedSimulation(protocol, population, initial, rng=1)
    with pytest.raises(InvalidParameterError):
        batched.add_observer(lambda *args: None)


# ---------------------------------------------------------------------- #
# Engine selection through the spec / executor / builder layers
# ---------------------------------------------------------------------- #
def test_auto_engine_selection_per_spec():
    # No enumeration needed (ppl), and the oracle rides along (fischer-jiang).
    for name in ("angluin-modk", "ppl", "fischer-jiang"):
        spec, protocol, population, initial = _trial_ingredients(name)
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(1), engine="auto"
        )
        assert type(simulation) is BatchedSimulation, name


@pytest.mark.parametrize("name,topology", SPEC_TOPOLOGY_GRID)
def test_auto_runs_the_table_for_every_spec(name, topology):
    """End to end through the builder: ``auto`` is the batched engine's
    table for every spec, size and topology, and its trials, budget misses
    included, equal the step engine's."""
    spec = get_spec(name)
    n = _grid_size(spec, topology)

    def trials(engine):
        return (experiment(name).on_topology(topology, n).trials(2)
                .max_steps(20_000).check_interval(1).engine(engine).run().trials)

    auto, step = trials("auto"), trials("step")
    assert {trial.engine for trial in auto} == {"batched"}
    assert [(trial.steps, trial.converged) for trial in auto] == \
        [(trial.steps, trial.converged) for trial in step]


def test_forced_batched_engine_errors_are_loud():
    # Neither a state space that does not enumerate (ppl) nor an oracle
    # (fischer-jiang) keeps a spec off the batched engine; unknown names
    # are errors.
    for name in ("ppl", "fischer-jiang"):
        spec, protocol, population, initial = _trial_ingredients(name)
        simulation = spec.build_simulation(protocol, population, initial,
                                           RandomSource(1), engine="batched")
        assert isinstance(simulation, BatchedSimulation)
    with pytest.raises(ValueError):
        resolve_engine("warp")


def test_the_engines_are_step_and_batched():
    assert ENGINES == ("auto", "step", "batched")
    with pytest.raises(ValueError, match="'auto', 'step', 'batched'"):
        resolve_engine("numpy")


def test_forced_step_engine_always_applies():
    spec, protocol, population, initial = _trial_ingredients("angluin-modk")
    simulation = spec.build_simulation(
        protocol, population, initial, RandomSource(1), engine="step"
    )
    assert isinstance(simulation, Simulation)


def test_run_spec_results_are_identical_across_engines():
    config = ExperimentConfig(trials=3, max_steps=400_000, check_interval=64)
    step = run_spec("angluin-modk", 9, config, engine="step")
    batched = run_spec("angluin-modk", 9, config, engine="batched")
    auto = run_spec("angluin-modk", 9, config, engine="auto")
    assert step.steps == batched.steps == auto.steps
    assert step.failures == batched.failures == auto.failures


def test_builder_reports_the_engine_that_ran():
    auto = (experiment("angluin-modk").on_ring(9).trials(2)
            .max_steps(400_000).engine("auto").run())
    assert {trial.engine for trial in auto.trials} == {"batched"}
    forced = (experiment("angluin-modk").on_ring(9).trials(2)
              .max_steps(400_000).engine("batched").run())
    assert {trial.engine for trial in forced.trials} == {"batched"}
    fallback = (experiment("ppl").on_ring(8).trials(1)
                .max_steps(400_000).engine("auto").run())
    assert {trial.engine for trial in fallback.trials} == {"batched"}
    oracle = (experiment("fischer-jiang").on_ring(8).trials(2)
              .engine("batched").run())
    assert {trial.engine for trial in oracle.trials} == {"batched"}
    with pytest.raises(ValueError):
        experiment("fischer-jiang").engine("numpy")


def test_run_spec_trials_equal_hand_built_trials():
    """The executor's trial is the documented recipe: per-trial seeds from
    ``trial_tasks``, ``build_simulation`` on the default engine, and
    ``run_until`` with the config's budget and check interval."""
    from repro.api.executor import trial_tasks

    config = ExperimentConfig(trials=3, max_steps=400_000, check_interval=64)
    spec = get_spec("yokota2021")
    hand_built = []
    for task in trial_tasks("yokota2021", 8, config, "random", rng_label="yokota"):
        protocol = spec.build_protocol(8, config)
        population = spec.build_population(8, config)
        initial = spec.build_configuration(
            "random", protocol, 8, RandomSource(task.configuration_seed))
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(task.scheduler_seed))
        predicate = spec.build_stop_predicate(protocol, population)
        run = simulation.run_until(predicate, max_steps=config.max_steps,
                                   check_interval=config.check_interval)
        hand_built.append(run.steps)
    assert run_spec("yokota2021", 8, config).steps == hand_built


def test_specs_without_canonical_states_run_on_the_default_engine():
    """The lazy table codes states on first sight, so a protocol on the
    base-class ``canonical_states`` (which yields nothing) runs like any."""
    from repro.api import ProtocolSpec, register, unregister
    from repro.core.configuration import random_configuration
    from repro.core.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, Protocol

    class MinimalProtocol(Protocol):
        name = "minimal-two-state"

        def transition(self, initiator, responder):
            return initiator, initiator

        def output(self, state):
            return LEADER_OUTPUT if state else FOLLOWER_OUTPUT

        def random_state(self, rng):
            return rng.randint(0, 1)

    register(ProtocolSpec(
        name="minimal-two-state",
        summary="regression: base-class canonical_states",
        factory=lambda n, config: MinimalProtocol(),
        families={"adversarial": lambda protocol, n, rng:
                  random_configuration(protocol, n, rng)},
        stop_predicate=lambda protocol:
            (lambda states: len(set(states)) == 1),
    ))
    try:
        config = ExperimentConfig(trials=2, max_steps=50_000, check_interval=8)
        result = run_spec("minimal-two-state", 8, config)
        assert result.failures == 0
        assert result.steps == run_spec("minimal-two-state", 8, config,
                                        engine="step").steps
    finally:
        unregister("minimal-two-state")
