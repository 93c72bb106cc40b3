"""Tests for the Configuration container."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.configuration import (
    Configuration,
    configuration_from_factory,
    random_configuration,
    uniform_configuration,
)
from repro.core.errors import InvalidConfigurationError
from repro.core.rng import RandomSource
from repro.protocols.ppl import PPLParams, PPLProtocol, PPLState


def make_params() -> PPLParams:
    return PPLParams(psi=3, kappa_factor=4)


def test_requires_at_least_two_agents():
    with pytest.raises(InvalidConfigurationError):
        Configuration([PPLState.fresh_leader()])


def test_indexing_wraps_around_the_ring():
    states = [PPLState.follower(dist=i) for i in range(5)]
    configuration = Configuration(states)
    assert configuration[5].dist == 0
    assert configuration[-1].dist == 4


def test_replace_does_not_mutate_original():
    configuration = Configuration([PPLState.follower(dist=i) for i in range(4)])
    updated = configuration.replace(2, PPLState.fresh_leader())
    assert updated[2].leader == 1
    assert configuration[2].leader == 0


def test_rotate_shifts_indices():
    configuration = Configuration([PPLState.follower(dist=i) for i in range(6)])
    rotated = configuration.rotate(2)
    for index in range(6):
        assert rotated[index].dist == configuration[index + 2].dist


def test_map_applies_transform():
    configuration = Configuration([PPLState.follower(dist=0) for _ in range(4)])

    def promote_first(index, state):
        if index == 0:
            return state._replace(leader=1)
        return state

    mapped = configuration.map(promote_first)
    assert mapped[0].leader == 1
    assert mapped[1].leader == 0


def test_leader_helpers_use_protocol_output():
    protocol = PPLProtocol(make_params())
    states = [PPLState.fresh_leader(), PPLState.follower(dist=1), PPLState.follower(dist=2)]
    configuration = Configuration(states)
    assert configuration.leader_count(protocol) == 1
    assert configuration.leader_indices(protocol) == [0]
    assert configuration.outputs(protocol) == ["L", "F", "F"]


def test_validate_reports_agent_index():
    protocol = PPLProtocol(make_params())
    bad = PPLState.follower(dist=0)._replace(dist=999)
    configuration = Configuration([PPLState.fresh_leader(), bad])
    with pytest.raises(InvalidConfigurationError) as excinfo:
        configuration.validate(protocol)
    assert "agent 1" in str(excinfo.value)


def test_random_configuration_is_valid(rng: RandomSource):
    params = make_params()
    protocol = PPLProtocol(params)
    configuration = random_configuration(protocol, 10, rng)
    configuration.validate(protocol)
    assert len(configuration) == 10


def test_uniform_and_factory_builders():
    template = PPLState.follower(dist=1)
    uniform = uniform_configuration(4, template, lambda state: state._replace())
    assert all(state.dist == 1 for state in uniform)
    assert uniform[0] is not uniform[1]

    built = configuration_from_factory(4, lambda i: PPLState.follower(dist=i))
    assert [state.dist for state in built] == [0, 1, 2, 3]


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=-20, max_value=20))
def test_rotation_round_trip(size, offset):
    configuration = Configuration([PPLState.follower(dist=i % 4) for i in range(size)])
    assert configuration.rotate(offset).rotate(-offset) == configuration


def test_equality_and_states_copy():
    a = Configuration([PPLState.follower(dist=i) for i in range(3)])
    b = Configuration([PPLState.follower(dist=i) for i in range(3)])
    assert a == b
    states = a.states()
    states.append(PPLState.fresh_leader())
    assert len(a) == 3
