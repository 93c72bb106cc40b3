"""Encoder sharing's coverage contract: a batch-shared table that misses a
trial's initial state triggers a silent per-trial rebuild — an optimization
miss, never a semantic change."""

import pytest

from repro.api.config import ExperimentConfig
from repro.api.executor import shared_encoder
from repro.api.registry import ProtocolSpec, get_spec, register, run_spec, unregister
from repro.core.configuration import Configuration
from repro.core.encoding import coverage_seeds
from repro.core.fast_simulator import NumpySimulation, numpy_available
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource


class _PlantedProtocol(Protocol):
    """Copy dynamics over {0, 1, 2}: the initiator overwrites the responder.

    ``random_state`` only ever draws 0 or 1, so the coverage probes — and
    therefore the batch-shared encoder — never see state 2.  A family that
    plants a 2 in the initial configuration exercises exactly the shared
    table's coverage miss.
    """

    name = "planted-copy"

    def transition(self, initiator, responder):
        return initiator, initiator

    def output(self, state):
        return "L" if state == 2 else "F"

    def random_state(self, rng):
        return rng.randint(0, 1)

    def state_space_size(self):
        return 3

    def canonical_states(self):
        return (0, 1)


def _planted_family(protocol, n, rng):
    return Configuration(
        [2] + [protocol.random_state(rng) for _ in range(n - 1)])


@pytest.fixture()
def planted_spec():
    spec = register(ProtocolSpec(
        name="planted-copy-test",
        summary="coverage-miss fixture (shared-encoder fallback test)",
        factory=lambda n, config: _PlantedProtocol(),
        families={"planted": _planted_family},
        default_family="planted",
        stop_predicate=lambda protocol: (
            lambda states: len(set(states)) == 1),
    ))
    try:
        yield spec
    finally:
        unregister("planted-copy-test")


def test_probe_seeds_miss_the_planted_state(planted_spec):
    protocol = _PlantedProtocol()
    seeds = coverage_seeds(protocol)
    assert set(seeds) == {0, 1}  # canonical states + random_state probes
    config = ExperimentConfig(trials=2, max_steps=10_000, check_interval=16)
    shared = shared_encoder("planted-copy-test", 6, config)
    assert shared is not None and shared.num_states == 2
    initial = planted_spec.build_configuration(
        "planted", protocol, 6, RandomSource(7))
    assert not shared.covers(initial.states())
    assert shared.covers([0, 1, 0])  # probe-drawn states are covered


@pytest.mark.skipif(not numpy_available(),
                    reason="the shared encoder serves the numpy tier only")
def test_uncovered_trial_rebuilds_its_own_encoder(planted_spec):
    config = ExperimentConfig(trials=2, max_steps=10_000, check_interval=16)
    spec = get_spec("planted-copy-test")
    protocol = spec.build_protocol(6, config)
    population = spec.build_population(6, config)
    initial = spec.build_configuration("planted", protocol, 6, RandomSource(7))
    shared = shared_encoder("planted-copy-test", 6, config)
    simulation = spec.build_simulation(
        protocol, population, initial, RandomSource(11),
        engine="numpy", encoder=shared)
    assert isinstance(simulation, NumpySimulation)
    # The per-trial fallback kicked in: a fresh table, compiled from this
    # trial's configuration, covering the planted state the probes missed.
    assert simulation.encoder is not shared
    assert simulation.encoder.covers(initial.states())
    assert simulation.encoder.num_states == 3


def test_fallback_results_match_the_step_engine_bit_for_bit(planted_spec):
    config = ExperimentConfig(trials=4, max_steps=10_000, check_interval=4)
    table_driven = run_spec("planted-copy-test", 6, config, engine="auto")
    stepped = run_spec("planted-copy-test", 6, config, engine="step")
    assert table_driven.steps == stepped.steps
    assert table_driven.failures == stepped.failures == 0
