"""Tests for the notable-configuration builders of the P_PL package."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidParameterError
from repro.core.rng import RandomSource
from repro.protocols.ppl.configurations import (
    adversarial_configuration,
    all_leaders_configuration,
    configuration_with_invalid_tokens,
    corrupted_safe_configuration,
    detection_ready_configuration,
    leaderless_configuration,
    many_leaders_configuration,
    mid_configuration,
    perfect_configuration,
    single_leader_unconstructed,
)
from repro.protocols.ppl.move_token import is_invalid_token
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.protocol import PPLProtocol
from repro.protocols.ppl.safety import in_spl, leader_count

PARAMS = PPLParams.for_population(12, kappa_factor=4)
N = 12


def test_perfect_configuration_validates_and_is_safe():
    configuration = perfect_configuration(N, PARAMS)
    configuration.validate(PPLProtocol(PARAMS))
    assert in_spl(configuration.states(), PARAMS)


def test_perfect_configuration_rejects_unsupported_population():
    with pytest.raises(InvalidParameterError):
        perfect_configuration(100, PPLParams(psi=3))


def test_perfect_configuration_leader_position():
    configuration = perfect_configuration(N, PARAMS, leader_at=5)
    assert configuration[5].leader == 1
    assert leader_count(configuration.states()) == 1


def test_leaderless_configuration_properties():
    configuration = leaderless_configuration(N, PARAMS)
    states = configuration.states()
    assert leader_count(states) == 0
    assert all(state.mode == MODE_DETECT for state in states)
    assert all(state.clock == PARAMS.kappa_max for state in states)
    cold = leaderless_configuration(N, PARAMS, detection_mode=False)
    assert all(state.mode == MODE_CONSTRUCT for state in cold)
    assert all(state.clock == 0 for state in cold)


def test_all_leaders_and_many_leaders():
    everyone = all_leaders_configuration(N, PARAMS)
    assert leader_count(everyone.states()) == N
    some = many_leaders_configuration(N, PARAMS, leaders=4, rng=1)
    assert leader_count(some.states()) == 4
    with pytest.raises(InvalidParameterError):
        many_leaders_configuration(N, PARAMS, leaders=0)
    with pytest.raises(InvalidParameterError):
        many_leaders_configuration(N, PARAMS, leaders=N + 1)


def test_adversarial_configuration_is_valid_and_reproducible():
    protocol = PPLProtocol(PARAMS)
    first = adversarial_configuration(N, PARAMS, rng=9)
    second = adversarial_configuration(N, PARAMS, rng=9)
    first.validate(protocol)
    assert [a.as_tuple() for a in first] == [b.as_tuple() for b in second]


def test_corrupted_safe_configuration_touches_requested_agents():
    pristine = perfect_configuration(N, PARAMS)
    corrupted = corrupted_safe_configuration(N, PARAMS, corruptions=3, rng=4)
    differing = sum(
        1 for a, b in zip(pristine, corrupted) if a.as_tuple() != b.as_tuple()
    )
    assert 0 < differing <= 3
    with pytest.raises(InvalidParameterError):
        corrupted_safe_configuration(N, PARAMS, corruptions=-1)


def test_invalid_token_configuration_contains_invalid_tokens():
    configuration = configuration_with_invalid_tokens(N, PARAMS, rng=2)
    states = configuration.states()
    assert any(
        state.token_b is not None
        and is_invalid_token(state.dist, state.token_b, 0, PARAMS.psi, PARAMS.dist_modulus)
        for state in states
    )


def test_single_leader_unconstructed_has_blank_embedding():
    configuration = single_leader_unconstructed(N, PARAMS, leader_at=3)
    states = configuration.states()
    assert leader_count(states) == 1
    assert states[3].leader == 1
    assert all(state.dist == 0 for state in states if state.leader == 0)
    assert not in_spl(states, PARAMS)


def test_mid_and_detection_ready_aliases():
    assert in_spl(mid_configuration(N, PARAMS).states(), PARAMS)
    ready = detection_ready_configuration(N, PARAMS)
    assert leader_count(ready.states()) == 0
    assert all(state.mode == MODE_DETECT for state in ready)


def test_builders_use_independent_random_sources():
    rng = RandomSource(5)
    a = adversarial_configuration(N, PARAMS, rng=rng)
    b = adversarial_configuration(N, PARAMS, rng=rng)
    # Drawing twice from the same source gives different configurations.
    assert [x.as_tuple() for x in a] != [y.as_tuple() for y in b]
