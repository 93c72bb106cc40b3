"""Cross-check suite: the numpy engine must be bit-identical to the step engine.

The vectorized tier reorders commuting interactions inside conflict-free
layers and replays the ``randrange`` stream from bulk generator words, so its
equivalence contract is checked the hard way: for **every registered
simulated spec** on **every topology it supports**, the same arc stream (or
the same seed) must produce the same final configuration, step count,
effective-step count, per-agent interaction counts, and leader count as
:class:`~repro.core.simulator.Simulation`.  The optional-dependency contract
is guarded too: the package must import and run (on the step/batched tiers)
without numpy installed.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentConfig, get_spec, list_specs, run_spec
from repro.api.executor import shared_encoder, trial_tasks
from repro.core.encoding import StateEncoder, coverage_seeds
from repro.core.errors import InvalidParameterError, ScheduleExhaustedError
from repro.core import fast_simulator
from repro.core.fast_simulator import (
    BatchedSimulation,
    NumpySimulation,
    _BlockDraws,
    numpy_available,
)
from repro.core.rng import RandomSource
from repro.core.scheduler import SequenceScheduler
from repro.core.simulator import Simulation
from repro.topology.registry import topology_names, validate_topology

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy engine not installed")

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


def _trial_ingredients(name: str, topology: str, seed: int = 31):
    """Protocol, population, and initial configuration for one grid point."""
    spec = get_spec(name)
    config = ExperimentConfig(topology=topology)

    def fits(k: int) -> bool:
        if not spec.supports(k):
            return False
        try:
            validate_topology(topology, k)
        except ValueError:
            return False
        return True

    n = next(k for k in range(8, 40) if fits(k))
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    initial = spec.build_configuration(
        spec.default_family, protocol, n, RandomSource(seed)
    )
    return spec, protocol, population, initial


@pytest.mark.parametrize("name,topology", sorted(_spec_topology_grid()))
def test_numpy_engine_is_bit_identical_on_the_same_arc_stream(name, topology):
    spec, protocol, population, initial = _trial_ingredients(name, topology)
    encoder = StateEncoder.try_build(protocol, initial.states())
    if encoder is None:
        # The enumerate-or-fallback contract: large-state protocols cannot
        # encode, and the auto engine must hand them to the lazily filled
        # batched table.
        assert name == "ppl", f"{name} unexpectedly failed to encode"
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(1), engine="auto"
        )
        assert isinstance(simulation, BatchedSimulation)
        return

    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    step_sim = Simulation(protocol, population, initial,
                          scheduler=SequenceScheduler(arcs))
    vectorized = NumpySimulation(protocol, population, initial,
                                 scheduler=SequenceScheduler(arcs),
                                 encoder=encoder)
    step_sim.run_sequence()
    vectorized.run_sequence()

    assert vectorized.states() == step_sim.states()
    assert vectorized.configuration().states() == step_sim.configuration().states()
    assert vectorized.steps == step_sim.steps == STREAM_LENGTH
    assert vectorized.metrics == step_sim.metrics  # steps, per-agent, effective
    assert vectorized.leader_count() == step_sim.leader_count()


@pytest.mark.parametrize("name,topology",
                         sorted(set(_spec_topology_grid()) - {("ppl", "directed-ring")}))
def test_numpy_engine_matches_step_engine_from_the_same_seed(name, topology):
    """The bulk word filter consumes the same randrange stream as the
    uniformly random scheduler, so equal seeds give equal executions."""
    _, protocol, population, initial = _trial_ingredients(name, topology)
    step_sim = Simulation(protocol, population, initial, rng=123)
    vectorized = NumpySimulation(protocol, population, initial, rng=123)
    step_sim.run(7_500)
    vectorized.run(7_500)
    assert vectorized.states() == step_sim.states()
    assert vectorized.metrics == step_sim.metrics
    assert vectorized.leader_count() == step_sim.leader_count()


def test_numpy_sequence_exhaustion_leaves_consistent_counters():
    _, protocol, population, initial = _trial_ingredients("fischer-jiang",
                                                          "directed-ring")
    arcs = [population.sample_arc(RandomSource(9)) for _ in range(75)]
    vectorized = NumpySimulation(protocol, population, initial,
                                 scheduler=SequenceScheduler(arcs))
    vectorized.run_sequence()
    assert vectorized.steps == 75
    with pytest.raises(ScheduleExhaustedError):
        vectorized.step()
    assert vectorized.steps == 75  # the failed step was not recorded


def test_numpy_engine_rejects_observers():
    _, protocol, population, initial = _trial_ingredients("fischer-jiang",
                                                          "directed-ring")
    vectorized = NumpySimulation(protocol, population, initial, rng=1)
    with pytest.raises(InvalidParameterError):
        vectorized.add_observer(lambda *args: None)


def test_numpy_engine_keeps_lazy_populations_lazy():
    """Closed-form endpoint recovery must not force a large complete graph
    to materialize its ~2.2M-arc list."""
    from repro.core.configuration import random_configuration
    from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol
    from repro.topology.complete import CompleteGraph

    protocol = FischerJiangProtocol()
    graph = CompleteGraph(1_500)
    initial = random_configuration(protocol, graph.size, RandomSource(4))
    vectorized = NumpySimulation(protocol, graph, initial, rng=4)
    vectorized.run(2_000)
    assert graph._materialized is None
    reference = Simulation(protocol, graph, initial, rng=4)
    reference.run(2_000)
    assert vectorized.states() == reference.states()


# ---------------------------------------------------------------------- #
# The bulk randrange replica
# ---------------------------------------------------------------------- #
def test_block_draws_equal_randrange_across_uppers_and_block_sizes():
    import random

    for seed in (0, 5, 2023):
        reference = random.Random(seed)
        draws = _BlockDraws(RandomSource(seed))
        for upper, count in ((13, 100), (8191, 777), (8192, 5000), (3, 50),
                             (24, 2048), (8192, 1), (65536 * 65535, 4096),
                             (2 ** 40 + 7, 500), (8192, 3000)):
            expected = [reference.randrange(upper) for _ in range(count)]
            got = draws.block(upper, count)
            assert expected == [int(value) for value in got], (seed, upper, count)


def test_block_draws_reject_out_of_range_uppers():
    draws = _BlockDraws(RandomSource(1))
    with pytest.raises(InvalidParameterError):
        draws.block(2 ** 63 + 1, 4)
    with pytest.raises(InvalidParameterError):
        draws.block(0, 4)


# ---------------------------------------------------------------------- #
# Check-interval backoff
# ---------------------------------------------------------------------- #
def _backoff_ingredients():
    spec, protocol, population, initial = _trial_ingredients("angluin-modk",
                                                             "directed-ring")
    predicate = spec.build_stop_predicate(protocol, population)
    return protocol, population, initial, predicate


def test_backoff_off_is_the_fixed_interval_engine():
    protocol, population, initial, predicate = _backoff_ingredients()
    plain = NumpySimulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=400_000, check_interval=64
    )
    explicit_off = NumpySimulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=400_000, check_interval=64, check_backoff=False
    )
    assert (plain.satisfied, plain.steps) == (explicit_off.satisfied,
                                              explicit_off.steps)


def test_backoff_schedule_is_identical_across_all_engines():
    protocol, population, initial, predicate = _backoff_ingredients()
    outcomes = []
    for engine in (Simulation, BatchedSimulation, NumpySimulation):
        run = engine(protocol, population, initial, rng=5).run_until(
            predicate, max_steps=400_000, check_interval=16, check_backoff=True
        )
        outcomes.append((run.satisfied, run.steps))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_backoff_caps_and_validates():
    protocol, population, initial, predicate = _backoff_ingredients()
    run = NumpySimulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=5_000, check_interval=16, check_backoff=True,
        check_interval_cap=64,
    )
    # Interval path 16, 32, 64, 64, ...: executed steps follow that schedule.
    assert run.steps <= 5_000
    with pytest.raises(ValueError):
        NumpySimulation(protocol, population, initial, rng=5).run_until(
            predicate, max_steps=100, check_interval=64, check_backoff=True,
            check_interval_cap=8,
        )


# ---------------------------------------------------------------------- #
# Engine selection and the optional-dependency contract
# ---------------------------------------------------------------------- #
def test_auto_falls_back_to_batched_when_numpy_is_unavailable(monkeypatch):
    monkeypatch.setattr(fast_simulator, "_NUMPY_AVAILABLE", False)
    spec, protocol, population, initial = _trial_ingredients("angluin-modk",
                                                             "directed-ring")
    simulation = spec.build_simulation(
        protocol, population, initial, RandomSource(1), engine="auto"
    )
    assert isinstance(simulation, BatchedSimulation)
    with pytest.raises(ValueError):
        spec.resolve_engine("numpy")


def test_forced_numpy_engine_errors_are_loud():
    spec, protocol, population, initial = _trial_ingredients("ppl",
                                                             "directed-ring")
    from repro.core.errors import StateSpaceError

    with pytest.raises(StateSpaceError):
        spec.build_simulation(protocol, population, initial, RandomSource(1),
                              engine="numpy")
    fj_spec = get_spec("fischer-jiang")
    with pytest.raises(ValueError):
        fj_spec.resolve_engine("numpy")


def test_package_imports_and_runs_without_numpy():
    """Subprocess with numpy import-blocked: the package must import, and an
    auto run must fall back to the batched tier with identical results."""
    script = r"""
import sys

class _BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.split(".")[0] == "numpy":
            raise ModuleNotFoundError("numpy blocked for the optional-dependency test")
        return None

sys.meta_path.insert(0, _BlockNumpy())
for cached in [name for name in sys.modules if name.startswith("numpy")]:
    del sys.modules[cached]

from repro.api import ExperimentConfig, run_spec
from repro.core.fast_simulator import numpy_available

assert not numpy_available(), "numpy should be blocked in this subprocess"
config = ExperimentConfig(trials=2, max_steps=400_000, check_interval=64)
result = run_spec("angluin-modk", 9, config, engine="auto")
assert result.trials == 2 and result.failures == 0, result
print("FALLBACK_STEPS=" + ",".join(str(count) for count in result.steps))
"""
    source_root = Path(__file__).resolve().parent.parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(source_root), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    marker = next(line for line in completed.stdout.splitlines()
                  if line.startswith("FALLBACK_STEPS="))
    fallback_steps = [int(part) for part in
                      marker.split("=", 1)[1].split(",")]
    # The fallback's trial outcomes equal the numpy tier's bit-for-bit.
    config = ExperimentConfig(trials=2, max_steps=400_000, check_interval=64)
    here = run_spec("angluin-modk", 9, config, engine="auto")
    assert here.steps == fallback_steps


# ---------------------------------------------------------------------- #
# Shared encoder compilation
# ---------------------------------------------------------------------- #
def test_shared_encoder_is_cached_and_covers_the_adversarial_family():
    config = ExperimentConfig(trials=3, max_steps=400_000, check_interval=64)
    first = shared_encoder("angluin-modk", 9, config)
    assert first is not None
    assert shared_encoder("angluin-modk", 9, config) is first  # cache hit
    # Coverage: every trial of the batch encodes without a per-trial rebuild.
    spec = get_spec("angluin-modk")
    for task in trial_tasks("angluin-modk", 9, config, "random"):
        protocol = spec.build_protocol(9, config)
        initial = spec.build_configuration(
            "random", protocol, 9, RandomSource(task.configuration_seed))
        assert first.covers(initial.states())


def test_shared_encoder_is_none_for_step_only_and_unencodable_specs():
    config = ExperimentConfig()
    assert shared_encoder("fischer-jiang", 8, config) is None  # oracle: step
    assert shared_encoder("ppl", 8, config) is None            # too many states
    assert shared_encoder("ppl", 8, config) is None            # cached miss


def test_specs_without_canonical_states_still_run_per_trial():
    """A protocol on the base-class ``canonical_states`` (yields nothing)
    has no batch-level seeds to share; the auto engine must fall back to
    per-trial compilation from the initial configuration, not crash."""
    from repro.api import register, run_spec, unregister
    from repro.api.executor import UNSHARED
    from repro.api.registry import ProtocolSpec
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
        assert shared_encoder("minimal-two-state", 8, config) is UNSHARED
        result = run_spec("minimal-two-state", 8, config, engine="auto")
        assert result.failures == 0
    finally:
        unregister("minimal-two-state")


def test_coverage_seeds_span_canonical_and_probe_states():
    from repro.protocols.baselines.angluin_modk import AngluinModKProtocol

    protocol = AngluinModKProtocol(2)
    seeds = coverage_seeds(protocol)
    assert len(seeds) > len(list(protocol.canonical_states()))
    encoder = StateEncoder.try_build(protocol, seeds)
    assert encoder is not None
    assert encoder.num_states <= protocol.state_space_size()


def test_run_spec_results_match_with_and_without_encoder_sharing():
    """Sharing the compiled table is invisible in the results."""
    config = ExperimentConfig(trials=3, max_steps=400_000, check_interval=64)
    shared = run_spec("yokota2021", 8, config)   # shared-encoder path
    per_trial = []
    spec = get_spec("yokota2021")
    for task in trial_tasks("yokota2021", 8, config, "random",
                            rng_label="yokota"):
        protocol = spec.build_protocol(8, config)
        population = spec.build_population(8, config)
        initial = spec.build_configuration(
            "random", protocol, 8, RandomSource(task.configuration_seed))
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(task.scheduler_seed),
            engine="auto",  # no shared encoder passed: per-trial compile
        )
        predicate = spec.build_stop_predicate(protocol, population)
        run = simulation.run_until(predicate, max_steps=config.max_steps,
                                   check_interval=config.check_interval)
        per_trial.append(run.steps)
    assert shared.steps == per_trial
