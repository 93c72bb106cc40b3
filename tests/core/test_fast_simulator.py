"""Cross-check suite: the batched engine must be bit-identical to the step engine.

The contract that makes the batched engine safe to select automatically:
driven by the same arc stream, :class:`BatchedSimulation` produces the same
final configuration, step count, effective-step count, per-agent interaction
counts, and leader count as :class:`Simulation` — for every registered
protocol spec.  The engine fills its transition table lazily, so specs whose
state space cannot be enumerated (``ppl``, ``yokota2021`` from n=17) run on
it too, and a table forced past its memory cap stays bit-identical.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentConfig, experiment, get_spec, list_specs, run_spec
from repro.core import fast_simulator
from repro.core.errors import InvalidParameterError, ScheduleExhaustedError
from repro.core.fast_simulator import (
    BatchedSimulation,
    NumpySimulation,
    numpy_available,
)
from repro.core.rng import RandomSource
from repro.core.scheduler import SequenceScheduler
from repro.core.simulator import Simulation
from repro.protocols.baselines.fischer_jiang import OracleSimulation

SIMULATED_SPECS = [spec.name for spec in list_specs() if spec.is_simulated]

#: Arc-stream length for the replay cross-checks: long enough to exercise
#: leader creation, elimination wars, and the converged (no-op) regime.
STREAM_LENGTH = 20_000


def _trial_ingredients(name: str, seed: int = 31):
    """Protocol, population, and initial configuration for one spec."""
    spec = get_spec(name)
    config = ExperimentConfig()
    n = next(k for k in range(8, 20) if spec.supports(k))
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n)
    initial = spec.build_configuration(
        spec.default_family, protocol, n, RandomSource(seed)
    )
    return spec, protocol, population, initial


@pytest.mark.parametrize("name", SIMULATED_SPECS)
def test_batched_engine_is_bit_identical_on_the_same_arc_stream(name):
    # No enumeration: large-state protocols (ppl) replay through the lazy
    # table exactly like the small ones.
    _, protocol, population, initial = _trial_ingredients(name)
    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    step_sim = Simulation(protocol, population, initial,
                          scheduler=SequenceScheduler(arcs))
    batched = BatchedSimulation(protocol, population, initial,
                                scheduler=SequenceScheduler(arcs))
    step_sim.run_sequence()
    batched.run_sequence()

    assert batched.states() == step_sim.states()
    assert batched.configuration().states() == step_sim.configuration().states()
    assert batched.steps == step_sim.steps == STREAM_LENGTH
    assert batched.metrics == step_sim.metrics  # steps, per-agent, effective
    assert batched.leader_count() == step_sim.leader_count()


@pytest.mark.parametrize("name", SIMULATED_SPECS)
def test_batched_engine_matches_step_engine_from_the_same_seed(name):
    """The internal block drawing consumes the same randrange stream as
    UniformRandomScheduler, so equal seeds give equal executions."""
    _, protocol, population, initial = _trial_ingredients(name)
    step_sim = Simulation(protocol, population, initial, rng=123)
    batched = BatchedSimulation(protocol, population, initial, rng=123)
    step_sim.run(7_500)
    batched.run(7_500)
    assert batched.states() == step_sim.states()
    assert batched.metrics == step_sim.metrics


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


@pytest.mark.parametrize("name", ["ppl", "yokota2021"])
def test_table_forced_past_its_cap_stays_bit_identical(name, monkeypatch):
    """With the cap tiny the table is rebuilt over and over; a snapshot
    taken before a rebuild and restored after it resumes exactly."""
    monkeypatch.setattr(fast_simulator, "MAX_CODED_STATES", 4)
    rebuilds = []
    rebuild = BatchedSimulation._rebuild

    def counted(self):
        rebuilds.append(self)
        rebuild(self)

    monkeypatch.setattr(BatchedSimulation, "_rebuild", counted)
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


def test_fast_draw_callable_consumes_the_same_stream_as_randrange():
    """The batched engine's block draws skip the randrange wrapper; the
    shortcut must consume the seeded generator identically."""
    reference, fast_source = RandomSource(99), RandomSource(99)
    fast = fast_source.randrange_callable()
    assert [reference.randrange(1000) for _ in range(5000)] == \
           [fast(1000) for _ in range(5000)]


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
    # 96 declared states: angluin-modk encodes, so auto picks the fastest
    # applicable table tier (numpy when installed, batched otherwise).
    table_tier = NumpySimulation if numpy_available() else BatchedSimulation
    cases = {
        "angluin-modk": table_tier,
        "ppl": BatchedSimulation,           # too many states: lazy table
        "fischer-jiang": OracleSimulation,  # custom factory: step engine
    }
    for name, expected_type in cases.items():
        spec, protocol, population, initial = _trial_ingredients(name)
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(1), engine="auto"
        )
        assert type(simulation) is expected_type, name


def test_forced_batched_engine_errors_are_loud():
    # A state space that does not enumerate is no longer an error for the
    # batched tier; custom simulation semantics and unknown names still are.
    spec, protocol, population, initial = _trial_ingredients("ppl")
    simulation = spec.build_simulation(protocol, population, initial,
                                       RandomSource(1), engine="batched")
    assert isinstance(simulation, BatchedSimulation)
    fj_spec = get_spec("fischer-jiang")
    with pytest.raises(ValueError):
        fj_spec.resolve_engine("batched")
    with pytest.raises(ValueError):
        spec.resolve_engine("warp")


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
    if numpy_available():
        vectorized = run_spec("angluin-modk", 9, config, engine="numpy")
        assert vectorized.steps == step.steps
        assert vectorized.failures == step.failures


def test_builder_reports_the_engine_that_ran():
    table_tier = "numpy" if numpy_available() else "batched"
    auto = (experiment("angluin-modk").on_ring(9).trials(2)
            .max_steps(400_000).engine("auto").run())
    assert {trial.engine for trial in auto.trials} == {table_tier}
    forced = (experiment("angluin-modk").on_ring(9).trials(2)
              .max_steps(400_000).engine("batched").run())
    assert {trial.engine for trial in forced.trials} == {"batched"}
    fallback = (experiment("ppl").on_ring(8).trials(1)
                .max_steps(400_000).engine("auto").run())
    assert {trial.engine for trial in fallback.trials} == {"batched"}
    with pytest.raises(ValueError):
        experiment("fischer-jiang").engine("batched")
    with pytest.raises(ValueError):
        experiment("fischer-jiang").engine("numpy")
