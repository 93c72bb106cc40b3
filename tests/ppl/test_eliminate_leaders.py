"""Unit tests for EliminateLeaders() — Algorithm 5 (the bullets-and-shields war)."""

from __future__ import annotations

from repro.protocols.ppl.eliminate_leaders import eliminate_leaders
from repro.protocols.ppl.state import BULLET_DUMMY, BULLET_LIVE, BULLET_NONE, PPLState


def leader(**overrides) -> PPLState:
    return PPLState.fresh_leader()._replace(**{"bullet": BULLET_NONE, "shield": 0,
                                               **overrides})


def follower(**overrides) -> PPLState:
    return PPLState.follower(dist=1)._replace(**overrides)


def interact(left: PPLState, right: PPLState):
    """Algorithm 5 on two states: both with the fields it writes replaced."""
    (l_bullet, l_shield, l_signal_b,
     r_leader, r_bullet, r_shield, r_signal_b) = eliminate_leaders(
        left.leader, left.bullet, left.shield, left.signal_b,
        right.leader, right.bullet, right.shield, right.signal_b)
    return (left._replace(bullet=l_bullet, shield=l_shield, signal_b=l_signal_b),
            right._replace(leader=r_leader, bullet=r_bullet, shield=r_shield,
                           signal_b=r_signal_b))


def test_initiator_leader_with_signal_fires_live_bullet_and_shields():
    left = leader(signal_b=1)
    right = follower()
    left, right = interact(left, right)
    # The bullet is fired live and, because the firing interaction is with the
    # right neighbor, advances into it within the same interaction.
    assert right.bullet == BULLET_LIVE
    assert left.bullet == BULLET_NONE
    assert left.shield == 1
    assert left.signal_b == 0


def test_responder_leader_with_signal_fires_dummy_bullet_and_unshields():
    left = follower()
    right = leader(signal_b=1, shield=1)
    left, right = interact(left, right)
    assert right.bullet == BULLET_DUMMY
    assert right.shield == 0
    assert right.signal_b == 0


def test_live_bullet_kills_unshielded_leader():
    left = follower(bullet=BULLET_LIVE)
    right = leader(shield=0)
    left, right = interact(left, right)
    assert right.leader == 0
    assert left.bullet == BULLET_NONE


def test_live_bullet_spares_shielded_leader_but_disappears():
    left = follower(bullet=BULLET_LIVE)
    right = leader(shield=1)
    left, right = interact(left, right)
    assert right.leader == 1
    assert left.bullet == BULLET_NONE


def test_dummy_bullet_never_kills():
    left = follower(bullet=BULLET_DUMMY)
    right = leader(shield=0)
    left, right = interact(left, right)
    assert right.leader == 1
    assert left.bullet == BULLET_NONE


def test_bullet_moves_right_into_empty_follower():
    left = follower(bullet=BULLET_LIVE)
    right = follower()
    left, right = interact(left, right)
    assert left.bullet == BULLET_NONE
    assert right.bullet == BULLET_LIVE


def test_bullet_blocked_by_existing_bullet_disappears():
    left = follower(bullet=BULLET_LIVE)
    right = follower(bullet=BULLET_DUMMY)
    left, right = interact(left, right)
    assert left.bullet == BULLET_NONE
    assert right.bullet == BULLET_DUMMY


def test_moving_bullet_wipes_bullet_absence_signal():
    left = follower(bullet=BULLET_DUMMY)
    right = follower(signal_b=1)
    left, right = interact(left, right)
    assert right.signal_b == 0
    # The signal cannot jump over the bullet to the left either.
    assert left.signal_b == 0


def test_bullet_absence_signal_propagates_right_to_left():
    left = follower()
    right = follower(signal_b=1)
    left, right = interact(left, right)
    assert left.signal_b == 1


def test_leader_as_responder_seeds_signal_at_left_neighbor():
    left = follower()
    right = leader()
    left, right = interact(left, right)
    assert left.signal_b == 1


def test_fresh_live_bullet_immediately_advances_into_follower():
    """Firing happens while interacting with the right neighbor, so the new bullet
    advances one hop within the same interaction (and the firer stays shielded)."""
    left = leader(signal_b=1)
    right = follower()
    left, right = interact(left, right)
    assert left.leader == 1
    assert left.shield == 1
    assert left.bullet == BULLET_NONE
    assert right.bullet == BULLET_LIVE


def test_two_adjacent_leaders_shielded_survive():
    left = leader(signal_b=1)   # fires live, shields itself
    right = leader(shield=1)
    left, right = interact(left, right)
    assert left.leader == 1
    assert right.leader == 1
    # The freshly fired bullet hit the shielded right leader and vanished.
    assert left.bullet == BULLET_NONE


def test_two_adjacent_leaders_unshielded_right_dies():
    left = leader(signal_b=1)
    right = leader(shield=0)
    left, right = interact(left, right)
    assert left.leader == 1
    assert right.leader == 0
