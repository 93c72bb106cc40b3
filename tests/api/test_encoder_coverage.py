"""A planted state outside everything ``random_state`` draws: the checker's
coverage probes miss it, and the lazily filled table that runs trials codes
it on first sight, bit-identically to the step engine."""

import pytest

from repro.api.config import ExperimentConfig
from repro.api.registry import ProtocolSpec, register, run_spec, unregister
from repro.core.configuration import Configuration
from repro.core.encoding import StateEncoder, coverage_seeds
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource


class _PlantedProtocol(Protocol):
    """Copy dynamics over {0, 1, 2}: the initiator overwrites the responder.

    ``random_state`` only ever draws 0 or 1, so the coverage probes — and
    therefore an encoder seeded by them — never see state 2.  A family that
    plants a 2 in the initial configuration exercises exactly that miss.
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
        summary="coverage-miss fixture (planted-state test)",
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
    encoder = StateEncoder.build(protocol, seeds)
    assert encoder.num_states == 2
    initial = planted_spec.build_configuration(
        "planted", protocol, 6, RandomSource(7))
    assert not encoder.covers(initial.states())
    assert encoder.covers([0, 1, 0])  # probe-drawn states are covered


def test_planted_state_results_match_the_step_engine_bit_for_bit(planted_spec):
    config = ExperimentConfig(trials=4, max_steps=10_000, check_interval=4)
    table_driven = run_spec("planted-copy-test", 6, config)
    stepped = run_spec("planted-copy-test", 6, config, engine="step")
    assert table_driven.steps == stepped.steps
    assert table_driven.failures == stepped.failures == 0
