"""Tests for the simulation engine."""

from __future__ import annotations

import pytest

from repro.core.configuration import Configuration, random_configuration
from repro.core.errors import ConvergenceError, InvalidConfigurationError, InvalidParameterError
from repro.core.fast_simulator import BatchedSimulation
from repro.core.rng import RandomSource
from repro.core.scheduler import SequenceScheduler, seq_r
from repro.core.simulator import Simulation
from repro.protocols.baselines.angluin_modk import AngluinModKProtocol
from repro.protocols.ppl import PPLParams, PPLProtocol, PPLState, perfect_configuration
from repro.topology.ring import DirectedRing


def make_setup(n=8, kappa_factor=4):
    params = PPLParams.for_population(n, kappa_factor=kappa_factor)
    protocol = PPLProtocol(params)
    ring = DirectedRing(n)
    configuration = perfect_configuration(n, params)
    return protocol, ring, configuration, params


def test_rejects_configuration_of_wrong_size():
    protocol, ring, _, params = make_setup(8)
    too_small = perfect_configuration(4, PPLParams.for_population(4, kappa_factor=4))
    with pytest.raises(InvalidConfigurationError):
        Simulation(protocol, ring, too_small, rng=1)


def test_step_counts_and_metrics_accumulate():
    protocol, ring, configuration, _ = make_setup()
    simulation = Simulation(protocol, ring, configuration, rng=1)
    simulation.run(50)
    assert simulation.steps == 50
    assert simulation.metrics.steps == 50
    assert sum(simulation.metrics.interactions_per_agent.values()) == 100


def test_deterministic_scheduler_replays_exactly():
    protocol, ring, configuration, _ = make_setup()
    schedule = seq_r(ring, 0, ring.size)
    simulation = Simulation(protocol, ring, configuration,
                            scheduler=SequenceScheduler(schedule))
    observed = []
    simulation.add_observer(lambda step, i, r, states: observed.append((i, r)))
    simulation.run_sequence()
    assert observed == schedule


def test_run_until_with_immediate_predicate():
    protocol, ring, configuration, params = make_setup()
    simulation = Simulation(protocol, ring, configuration, rng=2)
    result = simulation.run_until(lambda states: True, max_steps=1000)
    assert result.satisfied and result.steps == 0


def test_run_until_respects_budget_and_require_satisfied():
    protocol, ring, configuration, _ = make_setup()
    simulation = Simulation(protocol, ring, configuration, rng=3)
    result = simulation.run_until(lambda states: False, max_steps=100, check_interval=10)
    assert not result.satisfied
    assert result.steps == 100
    with pytest.raises(ConvergenceError):
        result.require_satisfied()


@pytest.mark.parametrize("engine", [Simulation, BatchedSimulation])
def test_run_until_rejects_bad_arguments(engine):
    protocol, ring, configuration, _ = make_setup()
    simulation = engine(protocol, ring, configuration, rng=4)
    with pytest.raises(ValueError):
        simulation.run_until(lambda states: True, max_steps=-1)
    with pytest.raises(ValueError):
        simulation.run_until(lambda states: True, max_steps=10, check_interval=0)


def test_same_seed_reproduces_identical_execution():
    protocol, ring, configuration, _ = make_setup()
    first = Simulation(protocol, ring, configuration, rng=42)
    second = Simulation(protocol, ring, configuration, rng=42)
    first.run(200)
    second.run(200)
    assert [s.as_tuple() for s in first.states()] == [s.as_tuple() for s in second.states()]


def test_two_agent_ring_runs():
    params = PPLParams.for_population(2, kappa_factor=4)
    protocol = PPLProtocol(params)
    ring = DirectedRing(2)
    states = [PPLState.fresh_leader(), PPLState.follower(dist=1)]
    simulation = Simulation(protocol, ring, Configuration(states), rng=5)
    simulation.run(100)
    assert simulation.steps == 100


def test_configuration_snapshot_is_independent_of_live_states():
    protocol, ring, configuration, _ = make_setup()
    simulation = Simulation(protocol, ring, configuration, rng=6)
    snapshot = simulation.configuration()
    simulation.run(100)
    # The earlier snapshot must not have been affected by later steps.
    assert snapshot == configuration or snapshot is not None
    assert len(snapshot) == ring.size


def test_leader_count_tracks_protocol_output():
    protocol, ring, configuration, _ = make_setup()
    simulation = Simulation(protocol, ring, configuration, rng=7)
    assert simulation.leader_count() == 1


def test_state_of_returns_states_and_rejects_out_of_range_agents():
    protocol, ring, configuration, _ = make_setup(8)
    simulation = Simulation(protocol, ring, configuration, rng=8)
    assert simulation.state_of(0) == configuration.states()[0]
    assert simulation.state_of(7) == configuration.states()[7]
    # Out-of-range indices must raise instead of silently wrapping modulo n.
    with pytest.raises(IndexError):
        simulation.state_of(8)
    with pytest.raises(IndexError):
        simulation.state_of(-1)


@pytest.mark.parametrize("engine", [Simulation, BatchedSimulation])
def test_run_rejects_a_negative_step_count_on_every_engine(engine):
    protocol = AngluinModKProtocol(2)
    ring = DirectedRing(9)
    simulation = engine(protocol, ring, random_configuration(protocol, 9, RandomSource(1)),
                        rng=1)
    with pytest.raises(InvalidParameterError):
        simulation.run(-1)
    assert simulation.steps == 0
