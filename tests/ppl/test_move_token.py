"""Unit tests for MoveToken() — Algorithm 3 (token creation, movement, checks)."""

from __future__ import annotations

from repro.core.scheduler import SequenceScheduler, token_round_trip
from repro.core.simulator import Simulation
from repro.protocols.ppl.move_token import (
    BLACK, WHITE, is_invalid_token, move_token, token_offset,
)
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.protocol import PPLProtocol
from repro.protocols.ppl.state import PPLState
from repro.protocols.ppl.configurations import leaderless_configuration
from repro.topology.ring import DirectedRing

PARAMS = PPLParams(psi=3, kappa_factor=4)


def agent(dist, b=0, last=0, mode=MODE_CONSTRUCT, token_b=None, token_w=None) -> PPLState:
    return PPLState.follower(dist=dist, b=b, last=last, mode=mode)._replace(
        token_b=token_b, token_w=token_w)


def interact(left: PPLState, right: PPLState, color: str):
    """Algorithm 3 for one color on two states: both with the fields it
    writes replaced, and whether line 18 created a leader."""
    field = "token_b" if color == BLACK else "token_w"
    l_token, r_token, r_b, created = move_token(
        left.dist, left.b, left.last, left.token(color),
        right.dist, right.b, right.last, right.mode, right.token(color),
        token_offset(color, PARAMS), PARAMS.psi, PARAMS.dist_modulus)
    return (left._replace(**{field: l_token}),
            right._replace(**{field: r_token, "b": r_b}), created)


def invalid(state: PPLState, color: str) -> bool:
    """``InvalidToken`` of the state's token of ``color``."""
    return is_invalid_token(state.dist, state.token(color), token_offset(color, PARAMS),
                            PARAMS.psi, PARAMS.dist_modulus)


# ---------------------------------------------------------------------- #
# Creation (lines 12-13)
# ---------------------------------------------------------------------- #
def test_black_border_creates_token_with_increment_of_its_bit():
    left = agent(dist=0, b=1)
    right = agent(dist=1)
    left, right, created = interact(left, right, BLACK)
    # Created as (psi, 1-b, b) = target psi to the right, value 0, carry 1 —
    # then immediately advanced one hop to the responder (pos >= 2 branch).
    assert left.token_b is None
    assert right.token_b == (PARAMS.psi - 1, 0, 1)


def test_white_border_creates_white_token_only():
    left = agent(dist=PARAMS.psi, b=0)
    right = agent(dist=PARAMS.psi + 1)
    left, right, created = interact(left, right, WHITE)
    left, right, created = interact(left, right, BLACK)
    assert right.token_w == (PARAMS.psi - 1, 1, 0)
    assert left.token_b is None and right.token_b is None


def test_last_segment_border_does_not_create_tokens():
    left = agent(dist=0, last=1)
    right = agent(dist=1, last=1)
    left, right, created = interact(left, right, BLACK)
    assert left.token_b is None and right.token_b is None


# ---------------------------------------------------------------------- #
# Movement and collisions (lines 14-15, 23-25, 29-31)
# ---------------------------------------------------------------------- #
def test_right_moving_token_advances_and_decrements_position():
    left = agent(dist=1, token_b=(2, 1, 0))
    right = agent(dist=2)
    left, right, created = interact(left, right, BLACK)
    assert left.token_b is None
    assert right.token_b == (1, 1, 0)


def test_left_moving_token_advances_toward_its_target():
    left = agent(dist=2)
    right = agent(dist=3, token_b=(-2, 1, 1))
    left, right, created = interact(left, right, BLACK)
    assert right.token_b is None
    assert left.token_b == (-1, 1, 1)


def test_collision_removes_left_token():
    left = agent(dist=1, token_b=(2, 1, 0))
    right = agent(dist=2, token_b=(1, 0, 0))
    left, right, created = interact(left, right, BLACK)
    assert left.token_b is None
    # The right token proceeds with its own business (it was at its target).
    assert right.token_b is not None


def test_token_entering_last_segment_is_destroyed():
    left = agent(dist=2, token_b=(1, 1, 0))
    right = agent(dist=3, last=1)
    left, right, created = interact(left, right, BLACK)
    assert left.token_b is None
    assert right.token_b is None


# ---------------------------------------------------------------------- #
# Target behaviour (lines 16-22, 26-28)
# ---------------------------------------------------------------------- #
def test_construction_mode_writes_bit_and_turns_around():
    left = agent(dist=PARAMS.psi - 1, token_b=(1, 1, 0))
    right = agent(dist=PARAMS.psi, b=0, mode=MODE_CONSTRUCT)
    left, right, created = interact(left, right, BLACK)
    assert right.b == 1
    assert right.token_b == (1 - PARAMS.psi, 1, 0)
    assert left.token_b is None
    assert not created


def test_detection_mode_mismatch_creates_leader():
    before_left = agent(dist=PARAMS.psi - 1, token_b=(1, 1, 0))
    before_right = agent(dist=PARAMS.psi, b=0, mode=MODE_DETECT)
    left, right, created = interact(before_left, before_right, BLACK)
    assert created
    # The bit itself is not overwritten in the detection mode.
    assert right.b == 0
    # Through Algorithm 1 (a saturated clock keeps the responder detecting)
    # the created leader is armed and shielded.
    _, after = PPLProtocol(PARAMS).transition(
        before_left, before_right._replace(clock=PARAMS.kappa_max))
    assert after.leader == 1
    assert after.bullet == 2 and after.shield == 1
    assert after.b == 0


def test_detection_mode_match_does_not_create_leader():
    left = agent(dist=PARAMS.psi - 1, token_b=(1, 1, 0))
    right = agent(dist=PARAMS.psi, b=1, mode=MODE_DETECT)
    left, right, created = interact(left, right, BLACK)
    assert not created
    assert right.token_b == (1 - PARAMS.psi, 1, 0)


def test_left_target_applies_binary_increment_with_carry():
    left = agent(dist=1, b=1)
    right = agent(dist=2, token_b=(-1, 0, 1))
    left, right, created = interact(left, right, BLACK)
    # Carry set: new value = 1 - b = 0, new carry = b = 1, heading right psi.
    assert left.token_b == (PARAMS.psi, 0, 1)
    assert right.token_b is None


def test_left_target_without_carry_copies_bit():
    left = agent(dist=1, b=1)
    right = agent(dist=2, token_b=(-1, 1, 0))
    left, right, created = interact(left, right, BLACK)
    assert left.token_b == (PARAMS.psi, 1, 0)


# ---------------------------------------------------------------------- #
# Invalid tokens (Definition 3.3, lines 32-33)
# ---------------------------------------------------------------------- #
def test_on_trajectory_tokens_are_valid():
    # Right-moving token landing in the second half of its window.
    assert not invalid(agent(dist=1, token_b=(2, 0, 0)), BLACK)
    # Left-moving token landing strictly inside the first segment.
    assert not invalid(agent(dist=2, token_b=(-1, 0, 0)), BLACK)
    # White tokens are judged relative to the psi offset.
    assert not invalid(agent(dist=PARAMS.psi + 1, token_w=(2, 0, 0)), WHITE)


def test_off_trajectory_tokens_are_invalid_and_deleted():
    holder = agent(dist=1, token_b=(1, 0, 0))  # lands at dist 2 < psi: off trajectory
    assert invalid(holder, BLACK)
    other = agent(dist=2)
    holder, other, created = interact(holder, other, BLACK)
    assert holder.token_b is None and other.token_b is None


def test_token_vanishes_at_final_destination():
    """After turning at u_{2psi-1} the token's landing becomes psi: deleted (Def. 3.4)."""
    left = agent(dist=2 * PARAMS.psi - 2, token_b=(1, 1, 0))
    right = agent(dist=2 * PARAMS.psi - 1, b=1, mode=MODE_CONSTRUCT)
    left, right, created = interact(left, right, BLACK)
    assert left.token_b is None
    assert right.token_b is None


def test_absent_token_is_never_invalid():
    assert not invalid(agent(dist=0), BLACK)


# ---------------------------------------------------------------------- #
# End-to-end: a driven token constructs the next segment's ID
# ---------------------------------------------------------------------- #
def test_driven_token_increments_segment_id():
    psi = PARAMS.psi
    n = 4 * psi
    protocol = PPLProtocol(PARAMS)
    ring = DirectedRing(n)
    start = leaderless_configuration(n, PARAMS, start_id=5, detection_mode=False)
    schedule = token_round_trip(ring, segment_start=0, psi=psi)
    simulation = Simulation(protocol, ring, start, scheduler=SequenceScheduler(schedule))
    simulation.run_sequence()
    states = simulation.states()
    first_id = sum(states[j].b << j for j in range(psi))
    second_id = sum(states[psi + j].b << j for j in range(psi))
    assert second_id == (first_id + 1) % PARAMS.segment_id_modulus
