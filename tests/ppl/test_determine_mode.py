"""Unit tests for DetermineMode() — Algorithm 4."""

from __future__ import annotations

from repro.protocols.ppl.determine_mode import determine_mode
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.state import PPLState

PARAMS = PPLParams(psi=3, kappa_factor=4)  # kappa_max = 12


def follower(**overrides) -> PPLState:
    return PPLState.follower(dist=1)._replace(**overrides)


def interact(left: PPLState, right: PPLState):
    """Algorithm 4 on two states: both with the fields it writes replaced."""
    (l_hits, l_clock, l_signal_r, l_mode,
     r_hits, r_clock, r_signal_r, r_mode) = determine_mode(
        left.leader, left.clock, left.signal_r, right.clock, right.hits, right.signal_r,
        PARAMS.psi, PARAMS.kappa_max)
    return (left._replace(hits=l_hits, clock=l_clock, signal_r=l_signal_r, mode=l_mode),
            right._replace(hits=r_hits, clock=r_clock, signal_r=r_signal_r, mode=r_mode))


def test_leader_initiator_generates_fresh_signal():
    left = follower(leader=1)
    right = follower()
    left, right = interact(left, right)
    # The signal is generated at the leader and immediately handed to the right.
    assert right.signal_r == PARAMS.kappa_max
    assert left.signal_r == 0


def test_lottery_counters_initiator_resets_responder_increments():
    left = follower(hits=2)
    right = follower(hits=1)
    left, right = interact(left, right)
    assert left.hits == 0
    assert right.hits == 2


def test_responder_hits_cap_at_psi():
    left = follower()
    right = follower(hits=PARAMS.psi)
    left, right = interact(left, right)
    assert right.hits <= PARAMS.psi


def test_signal_presence_resets_both_clocks():
    left = follower(signal_r=5, clock=7)
    right = follower(clock=9)
    left, right = interact(left, right)
    assert left.clock == 0
    assert right.clock == 0


def test_signal_moves_right_with_max_ttl():
    left = follower(signal_r=5)
    right = follower(signal_r=3)
    left, right = interact(left, right)
    assert left.signal_r == 0
    assert right.signal_r == 5


def test_absorption_resets_responder_hits():
    left = follower(signal_r=5)
    right = follower(signal_r=3, hits=2)
    left, right = interact(left, right)
    assert right.hits == 0


def test_right_signal_survives_when_stronger():
    left = follower(signal_r=2)
    right = follower(signal_r=9)
    left, right = interact(left, right)
    assert right.signal_r == 9
    assert left.signal_r == 0


def test_lottery_win_with_signal_decrements_ttl():
    left = follower()
    right = follower(signal_r=6, hits=PARAMS.psi - 1)
    left, right = interact(left, right)
    # The responder's hits reached psi in this interaction: TTL drops, hits reset.
    assert right.signal_r == 5
    assert right.hits == 0


def test_lottery_win_without_signal_advances_clock():
    left = follower()
    right = follower(hits=PARAMS.psi - 1, clock=3)
    left, right = interact(left, right)
    assert right.clock == 4
    assert right.hits == 0


def test_clock_saturates_at_kappa_max_and_switches_mode():
    left = follower()
    right = follower(hits=PARAMS.psi - 1, clock=PARAMS.kappa_max)
    left, right = interact(left, right)
    assert right.clock == PARAMS.kappa_max
    assert right.mode == MODE_DETECT
    assert left.mode == MODE_CONSTRUCT


def test_mode_is_pure_function_of_clock():
    left = follower(clock=PARAMS.kappa_max, mode=MODE_CONSTRUCT)
    right = follower(clock=0, mode=MODE_DETECT)
    left, right = interact(left, right)
    assert left.mode == MODE_DETECT
    assert right.mode == MODE_CONSTRUCT


def test_signal_never_negative_and_clock_never_exceeds_kappa_max():
    for hits in range(PARAMS.psi + 1):
        for signal in range(PARAMS.kappa_max + 1):
            left = follower()
            right = follower(hits=hits, signal_r=signal, clock=PARAMS.kappa_max)
            left, right = interact(left, right)
            assert 0 <= right.signal_r <= PARAMS.kappa_max
            assert 0 <= right.clock <= PARAMS.kappa_max
            assert 0 <= right.hits <= PARAMS.psi
