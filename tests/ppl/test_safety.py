"""Tests for the safe-configuration machinery of Section 4.1 (C_PB, C_DL, S_PL)."""

from __future__ import annotations

from repro.protocols.ppl.configurations import (
    all_leaders_configuration,
    leaderless_configuration,
    perfect_configuration,
)
from repro.protocols.ppl.params import PPLParams
from repro.protocols.ppl.safety import (
    all_tokens_valid_and_correct,
    distance_to_left_leader,
    distance_to_right_leader,
    in_c_no_bullet_absence_signal,
    in_c_no_live_bullet,
    in_cdl,
    in_cpb,
    in_spl,
    is_peaceful_bullet,
    leader_count,
    segment_ids_consistent,
    summary,
    unique_leader_index,
)
from repro.protocols.ppl.state import BULLET_LIVE, PPLState

PARAMS = PPLParams.for_population(12, kappa_factor=4)
N = 12


def safe_states():
    return perfect_configuration(N, PARAMS).states()


# ---------------------------------------------------------------------- #
# Leaders and distances
# ---------------------------------------------------------------------- #
def test_leader_counting_and_unique_index():
    states = safe_states()
    assert leader_count(states) == 1
    assert unique_leader_index(states) == 0
    states[5] = states[5]._replace(leader=1)
    assert leader_count(states) == 2
    assert unique_leader_index(states) is None


def test_distances_to_nearest_leaders():
    states = safe_states()
    assert distance_to_left_leader(states, 0) == 0
    assert distance_to_left_leader(states, 3) == 3
    assert distance_to_right_leader(states, 3) == N - 3
    leaderless = leaderless_configuration(N, PARAMS).states()
    assert distance_to_left_leader(leaderless, 3) is None
    assert distance_to_right_leader(leaderless, 3) is None


# ---------------------------------------------------------------------- #
# Peaceful bullets and C_PB
# ---------------------------------------------------------------------- #
def test_peaceful_bullet_requires_shielded_left_leader_and_clean_path():
    states = safe_states()
    states[4] = states[4]._replace(bullet=BULLET_LIVE)
    assert is_peaceful_bullet(states, 4)          # leader at 0 is shielded
    states[2] = states[2]._replace(signal_b=1)  # a bullet-absence signal in between
    assert not is_peaceful_bullet(states, 4)
    states[2] = states[2]._replace(signal_b=0)
    states[0] = states[0]._replace(shield=0)
    assert not is_peaceful_bullet(states, 4)


def test_cpb_membership():
    states = safe_states()
    assert in_cpb(states)
    states[4] = states[4]._replace(bullet=BULLET_LIVE)
    assert in_cpb(states)
    states[0] = states[0]._replace(shield=0)
    assert not in_cpb(states)
    assert not in_cpb(leaderless_configuration(N, PARAMS).states())


def test_no_live_bullet_and_no_signal_sets():
    states = safe_states()
    assert in_c_no_live_bullet(states)
    assert in_c_no_bullet_absence_signal(states)
    states[3] = states[3]._replace(bullet=BULLET_LIVE)
    states[7] = states[7]._replace(signal_b=1)
    assert not in_c_no_live_bullet(states)
    assert not in_c_no_bullet_absence_signal(states)


# ---------------------------------------------------------------------- #
# C_DL and S_PL
# ---------------------------------------------------------------------- #
def test_perfect_configuration_is_in_cdl_and_spl():
    states = safe_states()
    assert in_cdl(states, PARAMS)
    assert segment_ids_consistent(states, PARAMS)
    assert all_tokens_valid_and_correct(states, PARAMS)
    assert in_spl(states, PARAMS)


def test_cdl_requires_exact_distances_and_last_flags():
    states = safe_states()
    states[5] = states[5]._replace(dist=(states[5].dist + 1) % PARAMS.dist_modulus)
    assert not in_cdl(states, PARAMS)

    states = safe_states()
    states[N - 1] = states[N - 1]._replace(last=0)
    assert not in_cdl(states, PARAMS)


def test_spl_requires_consistent_segment_ids():
    states = safe_states()
    # Flip a bit in an interior segment: still CDL, no longer SPL.
    states[5] = states[5]._replace(b=1 - states[5].b)
    assert in_cdl(states, PARAMS)
    assert not segment_ids_consistent(states, PARAMS)
    assert not in_spl(states, PARAMS)


def test_spl_rejects_incorrect_tokens():
    states = safe_states()
    # A valid-looking token whose value bit contradicts the binary increment.
    first_segment_bits = [states[j].b for j in range(PARAMS.psi)]
    wrong_value = 1 - (first_segment_bits[0] ^ 1)
    states[0] = states[0]._replace(token_b=(PARAMS.psi, wrong_value, first_segment_bits[0]))
    assert not all_tokens_valid_and_correct(states, PARAMS)
    assert not in_spl(states, PARAMS)


def test_spl_accepts_freshly_created_token():
    states = safe_states()
    # Exactly what line 13 creates at the black border u_0.
    states[0] = states[0]._replace(token_b=(PARAMS.psi, 1 - states[0].b, states[0].b))
    assert all_tokens_valid_and_correct(states, PARAMS)
    assert in_spl(states, PARAMS)


def test_rotated_safe_configuration_is_still_safe():
    states = perfect_configuration(N, PARAMS, leader_at=7).states()
    assert unique_leader_index(states) == 7
    assert in_spl(states, PARAMS)


def test_summary_reports_all_memberships():
    report = summary(safe_states(), PARAMS)
    assert report["leaders"] == 1
    assert report["perfect"] and report["in_CPB"] and report["in_CDL"] and report["in_SPL"]
    report = summary(all_leaders_configuration(N, PARAMS).states(), PARAMS)
    assert report["leaders"] == N
    assert not report["in_SPL"]
