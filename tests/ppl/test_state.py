"""Tests for the P_PL per-agent state record and its validation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.encoding import state_key
from repro.core.errors import InvalidStateError
from repro.core.rng import RandomSource
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.protocol import PPLProtocol
from repro.protocols.ppl.state import (
    BULLET_LIVE,
    PPLState,
    random_state,
    random_token,
    validate_state,
    validate_token,
)

PARAMS = PPLParams(psi=4, kappa_factor=4)


def test_follower_and_fresh_leader_constructors():
    follower = PPLState.follower(dist=3, b=1, last=1, mode=MODE_DETECT)
    assert (follower.leader, follower.dist, follower.b, follower.last) == (0, 3, 1, 1)
    assert follower.is_detecting()

    leader = PPLState.fresh_leader()
    assert leader.leader == 1
    assert leader.bullet == BULLET_LIVE
    assert leader.shield == 1
    assert leader.signal_b == 0
    validate_state(leader, PARAMS)


def test_replace_builds_an_independent_variant():
    original = PPLState.follower(dist=2)
    variant = original._replace(dist=5, token_b=(1, 0, 1))
    assert (variant.dist, variant.token_b) == (5, (1, 0, 1))
    assert original.dist == 2
    assert original.token_b is None
    assert original == PPLState.follower(dist=2)


@pytest.mark.parametrize("field", PPLState._fields)
def test_assigning_a_field_raises(field):
    state = PPLState.follower(dist=2)
    with pytest.raises(AttributeError):
        setattr(state, field, getattr(state, field))
    assert state == PPLState.follower(dist=2)


def test_states_are_hashable_and_their_own_table_key():
    state = PPLState.follower(dist=2)
    assert state_key(state) is state
    assert {state: 1}[PPLState.follower(dist=2)] == 1


def test_created_leader_matches_creation_rule():
    # A detecting responder whose dist disagrees with the recomputed one
    # (Algorithm 2 lines 5-6) becomes a leader.
    protocol = PPLProtocol(PARAMS)
    detecting = PPLState.follower(dist=3, mode=MODE_DETECT)._replace(clock=PARAMS.kappa_max)
    _, state = protocol.transition(PPLState.follower(dist=0), detecting)
    assert state.leader == 1
    assert state.bullet == BULLET_LIVE
    assert state.shield == 1
    assert state.signal_b == 0
    # dist is untouched by the creation rule (the construction phase fixes it).
    assert state.dist == 3


def test_border_predicate():
    assert PPLState.follower(dist=0).is_border(PARAMS)
    assert PPLState.follower(dist=PARAMS.psi).is_border(PARAMS)
    assert not PPLState.follower(dist=1).is_border(PARAMS)


def test_token_accessors():
    state = PPLState.follower()._replace(token_b=(2, 1, 0), token_w=(-1, 0, 1))
    assert state.token("B") == (2, 1, 0)
    assert state.token("W") == (-1, 0, 1)
    assert state.token_b == (2, 1, 0)


@pytest.mark.parametrize("token", [(0, 0, 0), (5, 0, 0), (-4, 1, 1), (1, 2, 0), (1, 0, "x")])
def test_validate_token_rejects_bad_tokens(token):
    with pytest.raises(InvalidStateError):
        validate_token(token, PARAMS, "token_b")


@pytest.mark.parametrize("token", [None, (1, 0, 1), (4, 1, 1), (-1, 0, 0), (-3, 1, 0)])
def test_validate_token_accepts_good_tokens(token):
    validate_token(token, PARAMS, "token_b")


@pytest.mark.parametrize(
    "field,value",
    [
        ("leader", 2),
        ("b", -1),
        ("dist", 8),
        ("last", 3),
        ("mode", "weird"),
        ("clock", 17),
        ("hits", 5),
        ("signal_r", -1),
        ("bullet", 3),
        ("shield", 2),
        ("signal_b", 2),
    ],
)
def test_validate_state_rejects_out_of_domain_fields(field, value):
    state = PPLState.follower(dist=1)._replace(**{field: value})
    with pytest.raises(InvalidStateError):
        validate_state(state, PARAMS)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_state_is_always_valid(seed):
    state = random_state(RandomSource(seed), PARAMS)
    validate_state(state, PARAMS)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_token_is_always_valid(seed):
    validate_token(random_token(RandomSource(seed), PARAMS), PARAMS, "token_b")


def test_as_tuple_round_trips_equality():
    rng = RandomSource(5)
    a = random_state(rng, PARAMS)
    b = PPLState(*a.as_tuple())
    assert a.as_tuple() == b.as_tuple()
    assert a == b
    b = b._replace(clock=(b.clock + 1) % (PARAMS.kappa_max + 1))
    assert a.as_tuple() != b.as_tuple()


def test_mode_constants_are_distinct():
    assert MODE_CONSTRUCT != MODE_DETECT
