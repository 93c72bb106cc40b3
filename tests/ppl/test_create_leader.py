"""Unit tests for CreateLeader() — Algorithm 2 (dist / last maintenance and detection)."""

from __future__ import annotations

from repro.protocols.ppl.create_leader import create_leader
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.protocol import PPLProtocol
from repro.protocols.ppl.state import PPLState

PARAMS = PPLParams(psi=3, kappa_factor=4)
PROTOCOL = PPLProtocol(PARAMS)


def agent(dist=1, leader=0, mode=MODE_CONSTRUCT, last=0, clock=0) -> PPLState:
    return PPLState.follower(dist=dist, mode=mode, last=last)._replace(
        leader=leader, clock=clock)


def interact(left: PPLState, right: PPLState):
    """Lines 4-9 on two states (``right.mode`` stands for the mode line 3
    wrote): both with the fields they write replaced, and whether line 6
    created a leader."""
    l_last, r_dist, created = create_leader(
        left.dist, right.leader, right.dist, right.last, right.mode,
        PARAMS.psi, PARAMS.dist_modulus)
    return left._replace(last=l_last), right._replace(dist=r_dist), created


def test_construction_mode_adopts_recomputed_distance():
    left = agent(dist=2)
    right = agent(dist=5, mode=MODE_CONSTRUCT)
    left, right, created = interact(left, right)
    assert right.dist == 3
    assert not created


def test_responder_leader_has_distance_zero():
    left = agent(dist=4)
    right = agent(dist=5, leader=1)
    left, right, created = interact(left, right)
    # In construction mode the leader's distance is reset to zero.
    assert right.mode == MODE_CONSTRUCT
    assert right.dist == 0


def test_detection_mode_mismatch_creates_leader_without_touching_dist():
    left = agent(dist=2)
    right = agent(dist=5, mode=MODE_DETECT, clock=PARAMS.kappa_max)
    after_left, after_right, created = interact(left, right)
    assert created
    assert after_right.dist == 5
    # Line 9 already sees the new leader on the right.
    assert after_left.last == 1
    # Through Algorithm 1 (the saturated clock keeps the responder in the
    # detection mode through line 3) the new leader is armed and shielded.
    _, after = PROTOCOL.transition(left, right)
    assert after.leader == 1
    assert after.bullet == 2 and after.shield == 1
    assert after.dist == 5


def test_detection_mode_consistent_distance_is_quiet():
    left = agent(dist=2)
    right = agent(dist=3, mode=MODE_DETECT, clock=PARAMS.kappa_max)
    left, right, created = interact(left, right)
    assert not created
    assert PROTOCOL.transition(left, right)[1].leader == 0


def test_distance_wraps_modulo_two_psi():
    left = agent(dist=2 * PARAMS.psi - 1)
    right = agent(dist=0, mode=MODE_CONSTRUCT)
    left, right, created = interact(left, right)
    assert right.dist == 0


def test_last_flag_set_when_right_neighbor_is_leader():
    left = agent(dist=2, last=0)
    right = agent(leader=1)
    left, right, created = interact(left, right)
    assert left.last == 1


def test_last_flag_cleared_when_right_neighbor_is_border_follower():
    left = agent(dist=2, last=1)
    right = agent(dist=PARAMS.psi, mode=MODE_DETECT, clock=PARAMS.kappa_max)
    left, right, created = interact(left, right)
    assert left.last == 0


def test_last_flag_copied_from_interior_follower():
    left = agent(dist=1, last=0)
    right = agent(dist=2, last=1)
    left, right, created = interact(left, right)
    assert left.last == 1


def test_leader_creation_keeps_detection_clock_saturated():
    """Creating a leader does not silently reset the clock; only signals do."""
    left = agent(dist=2)
    right = agent(dist=5, mode=MODE_DETECT, clock=PARAMS.kappa_max)
    _, after = PROTOCOL.transition(left, right)
    assert after.leader == 1
    assert after.clock == PARAMS.kappa_max


def test_border_initiator_spawns_black_token_during_create_leader():
    left = agent(dist=0)
    right = agent(dist=1)
    _, after = PROTOCOL.transition(left, right)
    # The black token is created at the border and advanced one hop (Alg. 3).
    assert after.token_b is not None
