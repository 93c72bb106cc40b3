"""Tests for the oracle baseline [15] and the mod-k baseline [5]."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configuration import Configuration, random_configuration
from repro.core.errors import InvalidParameterError
from repro.core.fast_simulator import BatchedSimulation
from repro.core.rng import RandomSource
from repro.core.simulator import Simulation
from repro.protocols.baselines.angluin_modk import AngluinModKProtocol, AngluinState
from repro.protocols.baselines.fischer_jiang import (
    FischerJiangProtocol,
    FischerJiangState,
    OracleOmega,
)
from repro.topology.ring import DirectedRing

N = 13

#: Both engines take the oracle.
ENGINES = [Simulation, BatchedSimulation]


# ---------------------------------------------------------------------- #
# Fischer-Jiang with oracle
# ---------------------------------------------------------------------- #
def test_oracle_raises_absence_flags_only_when_leaderless():
    oracle = OracleOmega(report_interval=1, patience=0)
    with_leader = [FischerJiangState.fresh_leader(), FischerJiangState.follower()]
    assert not oracle.observe_and_report(with_leader)
    leaderless = [FischerJiangState.follower(), FischerJiangState.follower()]
    assert oracle.observe_and_report(leaderless)
    assert all(state.absence == 1 for state in leaderless)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.tier)
def test_oracle_never_rewrites_snapshots_or_the_callers_configuration(engine):
    """Raising the flags writes copies into the live list: an earlier
    snapshot, and the caller's initial configuration, keep their values."""
    protocol = FischerJiangProtocol()
    initial = Configuration([FischerJiangState.follower() for _ in range(6)])
    simulation = engine(protocol, DirectedRing(6), initial, rng=3,
                        oracle=OracleOmega(report_interval=6))
    simulation.run(5)
    snapshot = simulation.configuration()
    simulation.step()  # step 6: the oracle reports the leaderless ring
    assert any(state.absence for state in simulation.states())
    assert [state.absence for state in snapshot] == [0] * 6
    assert [state.absence for state in initial] == [0] * 6


def test_oracle_patience_delays_the_report():
    oracle = OracleOmega(report_interval=1, patience=2)
    leaderless = [FischerJiangState.follower(), FischerJiangState.follower()]
    assert not oracle.observe_and_report(leaderless)
    assert not oracle.observe_and_report(leaderless)
    assert oracle.observe_and_report(leaderless)


def test_oracle_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        OracleOmega(report_interval=0)
    with pytest.raises(InvalidParameterError):
        OracleOmega(patience=-1)


def test_absence_flag_turns_agent_into_leader():
    protocol = FischerJiangProtocol()
    flagged = FischerJiangState.follower()
    flagged.absence = 1
    other = FischerJiangState.follower()
    new_left, _ = protocol.transition(flagged, other)
    assert new_left.leader == 1
    assert new_left.absence == 0


def test_fischer_jiang_constant_state_space():
    assert FischerJiangProtocol().state_space_size() == 24


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_fischer_jiang_transition_preserves_validity(seed):
    protocol = FischerJiangProtocol()
    rng = RandomSource(seed)
    new_left, new_right = protocol.transition(protocol.random_state(rng),
                                              protocol.random_state(rng))
    protocol.validate(new_left)
    protocol.validate(new_right)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.tier)
def test_fischer_jiang_converges_with_oracle(engine):
    protocol = FischerJiangProtocol()
    ring = DirectedRing(N)
    for seed in (1, 2):
        start = random_configuration(protocol, N, RandomSource(seed))
        simulation = engine(protocol, ring, start,
                            oracle=OracleOmega(report_interval=N), rng=seed)
        result = simulation.run_until(protocol.is_stable, max_steps=400_000,
                                      check_interval=16)
        assert result.satisfied
        assert protocol.count_leaders(simulation.states()) == 1


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.tier)
def test_fischer_jiang_recovers_from_leaderless_start(engine):
    protocol = FischerJiangProtocol()
    ring = DirectedRing(N)
    start = Configuration([FischerJiangState.follower() for _ in range(N)])
    simulation = engine(protocol, ring, start,
                        oracle=OracleOmega(report_interval=N), rng=9)
    result = simulation.run_until(protocol.is_stable, max_steps=400_000, check_interval=16)
    assert result.satisfied


# ---------------------------------------------------------------------- #
# Angluin et al. mod-k
# ---------------------------------------------------------------------- #
def test_angluin_requires_k_at_least_two_and_checks_divisibility():
    with pytest.raises(InvalidParameterError):
        AngluinModKProtocol(k=1)
    protocol = AngluinModKProtocol(k=2)
    assert protocol.supports_population(13)
    assert not protocol.supports_population(14)


def test_angluin_constant_state_space():
    assert AngluinModKProtocol(k=2).state_space_size() == 2 * 2 * 2 * 3 * 2 * 2


def test_angluin_leader_resets_label():
    protocol = AngluinModKProtocol(k=3)
    left = AngluinState.follower(label=2)
    right = AngluinState.fresh_leader()
    right.label = 2
    _, new_right = protocol.transition(left, right)
    assert new_right.label == 0


def test_angluin_violation_with_coin_zero_creates_leader():
    protocol = AngluinModKProtocol(k=3)
    left = AngluinState.follower(label=0)
    right = AngluinState.follower(label=2)
    right.coin = 0
    _, new_right = protocol.transition(left, right)
    assert new_right.leader == 1


def test_angluin_violation_with_coin_one_repairs_label():
    protocol = AngluinModKProtocol(k=3)
    left = AngluinState.follower(label=0)
    right = AngluinState.follower(label=2)
    right.coin = 1
    _, new_right = protocol.transition(left, right)
    assert new_right.leader == 0
    assert new_right.label == 1


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_angluin_transition_preserves_validity(seed):
    protocol = AngluinModKProtocol(k=2)
    rng = RandomSource(seed)
    new_left, new_right = protocol.transition(protocol.random_state(rng),
                                              protocol.random_state(rng))
    protocol.validate(new_left)
    protocol.validate(new_right)


def test_angluin_converges_on_odd_ring():
    protocol = AngluinModKProtocol(k=2)
    ring = DirectedRing(N)
    for seed in (3, 4):
        start = random_configuration(protocol, N, RandomSource(seed))
        simulation = Simulation(protocol, ring, start, rng=seed + 50)
        result = simulation.run_until(protocol.is_stable, max_steps=1_500_000,
                                      check_interval=32)
        assert result.satisfied
        assert protocol.count_leaders(simulation.states()) == 1


def test_angluin_stability_is_closed():
    protocol = AngluinModKProtocol(k=2)
    ring = DirectedRing(N)
    states = [AngluinState.follower(label=i % 2) for i in range(N)]
    leader = AngluinState.fresh_leader()
    leader.bullet = 0
    states[0] = leader
    simulation = Simulation(protocol, ring, Configuration(states), rng=8)
    for _ in range(40):
        simulation.run(200)
        assert protocol.count_leaders(simulation.states()) == 1
