"""Property-based tests for the P_PL transition function.

These are the invariants the paper's correctness argument leans on, checked
with hypothesis over arbitrary (adversarial) pairs of states:

* totality and closure of the state space: any pair of valid states maps to a
  pair of valid states;
* determinism: the transition is a function;
* leaders are never destroyed by ``CreateLeader()`` alone (only live bullets
  reaching an unshielded leader do that);
* a newly created leader is always armed (live bullet) and shielded — the
  ingredient behind Lemma 4.9's "newly fired live bullets are peaceful".
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.rng import RandomSource
from repro.protocols.ppl.params import PPLParams
from repro.protocols.ppl.protocol import PPLProtocol
from repro.protocols.ppl.state import BULLET_LIVE, random_state, validate_state

PARAMS = PPLParams(psi=4, kappa_factor=4)
PROTOCOL = PPLProtocol(PARAMS)


def states_from_seed(seed: int):
    rng = RandomSource(seed)
    return random_state(rng, PARAMS), random_state(rng, PARAMS)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_transition_maps_valid_states_to_valid_states(seed):
    left, right = states_from_seed(seed)
    new_left, new_right = PROTOCOL.transition(left, right)
    validate_state(new_left, PARAMS)
    validate_state(new_right, PARAMS)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_transition_is_deterministic(seed):
    left, right = states_from_seed(seed)
    first = PROTOCOL.transition(left, right)
    second = PROTOCOL.transition(left, right)
    assert first[0].as_tuple() == second[0].as_tuple()
    assert first[1].as_tuple() == second[1].as_tuple()


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_transition_does_not_mutate_inputs(seed):
    left, right = states_from_seed(seed)
    left_before, right_before = left.as_tuple(), right.as_tuple()
    PROTOCOL.transition(left, right)
    assert left.as_tuple() == left_before
    assert right.as_tuple() == right_before


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_initiator_leadership_is_never_revoked_in_one_interaction(seed):
    """Only a live bullet arriving at the *responder* can kill a leader."""
    left, right = states_from_seed(seed)
    left = left._replace(leader=1)
    new_left, _ = PROTOCOL.transition(left, right)
    assert new_left.leader == 1


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_shielded_responder_leader_survives(seed):
    left, right = states_from_seed(seed)
    # signal_b = 0: not about to fire a dummy bullet (which drops the shield).
    right = right._replace(leader=1, shield=1, signal_b=0)
    _, new_right = PROTOCOL.transition(left, right)
    assert new_right.leader == 1


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_newly_created_leaders_are_armed_and_shielded(seed):
    left, right = states_from_seed(seed)
    left, right = left._replace(leader=0), right._replace(leader=0)
    new_left, new_right = PROTOCOL.transition(left, right)
    assert new_left.leader == 0  # only the responder can detect and become a leader
    if new_right.leader == 1:
        assert new_right.shield == 1
        assert new_right.bullet == BULLET_LIVE or new_right.bullet == 0
        assert new_right.signal_b == 0


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_leader_count_changes_by_at_most_one(seed):
    left, right = states_from_seed(seed)
    before = left.leader + right.leader
    new_left, new_right = PROTOCOL.transition(left, right)
    after = new_left.leader + new_right.leader
    assert abs(after - before) <= 1
