"""Tests for segments, segment IDs and perfect configurations (Lemma 3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import InvalidParameterError
from repro.protocols.ppl.configurations import leaderless_configuration, perfect_configuration
from repro.protocols.ppl.params import PPLParams
from repro.protocols.ppl.perfection import (
    border_indices,
    dist_rule_violations,
    first_leader_index,
    is_perfect,
    leaderless_perfect_exists,
    render_segment_ids,
    segment_id,
    segment_id_bits,
    segment_id_sequence,
    segment_rule_violations,
    segments,
)

#: Parameters sized for the 12-agent ring used by most cases (psi = 4).
PARAMS = PPLParams.for_population(12, kappa_factor=4)


def test_perfect_configuration_is_perfect():
    for n in (8, 12, 15, 16):
        params = PPLParams.for_population(n, kappa_factor=4)
        states = perfect_configuration(n, params).states()
        assert is_perfect(states, params)
        assert not dist_rule_violations(states, params)
        assert not segment_rule_violations(states, params)


def test_borders_every_psi_agents():
    n = 12
    states = perfect_configuration(n, PARAMS).states()
    assert border_indices(states, PARAMS) == [0, 4, 8]
    ring_segments = segments(states, PARAMS)
    assert [segment.start for segment in ring_segments] == [0, 4, 8]
    assert all(segment.length == 4 for segment in ring_segments)


def test_segment_ids_increase_clockwise():
    n = 15
    params = PPLParams.for_population(n, kappa_factor=4)
    states = perfect_configuration(n, params, start_id=6).states()
    ids = segment_id_sequence(states, params)
    # IDs increase by one for all segments not adjacent to the leader.
    for previous, current in zip(ids[:-2], ids[1:-1]):
        assert current == (previous + 1) % params.segment_id_modulus


def test_segment_id_bits_round_trip():
    for value in (0, 1, 5, 7):
        bits = segment_id_bits(value, 3)
        assert sum(bit << i for i, bit in enumerate(bits)) == value
    with pytest.raises(InvalidParameterError):
        segment_id_bits(-1, 3)


def test_dist_rule_violation_detected():
    states = perfect_configuration(12, PARAMS).states()
    states[5] = states[5]._replace(dist=0)  # corrupt one distance (not a legal border position)
    assert dist_rule_violations(states, PARAMS)
    assert not is_perfect(states, PARAMS)


def test_segment_rule_violation_detected():
    n = 15
    params = PPLParams.for_population(n, kappa_factor=4)
    configuration = perfect_configuration(n, params)
    states = configuration.states()
    # Corrupt the ID of an interior segment (away from the leader).
    victim = segments(states, params)[2]
    for agent in victim.agents:
        states[agent] = states[agent]._replace(b=1 - states[agent].b)
    assert segment_rule_violations(states, params)
    assert not is_perfect(states, params)


def test_leaderless_consistent_configuration_is_never_perfect():
    """Lemma 3.2: without a leader, perfection is impossible."""
    for n in (6, 9, 12, 15, 18, 24):
        params = PPLParams.for_population(n, kappa_factor=4)
        states = leaderless_configuration(n, params).states()
        assert first_leader_index(states) is None
        assert not is_perfect(states, params)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=256))
def test_lemma_3_2_combinatorial_predicate(n):
    params = PPLParams.for_population(n, kappa_factor=4)
    assert leaderless_perfect_exists(n, params) is False


def test_leaderless_perfect_exists_requires_supported_population():
    with pytest.raises(InvalidParameterError):
        leaderless_perfect_exists(100, PPLParams(psi=2))


def test_render_segment_ids_mentions_leader_and_ids():
    n = 12
    states = perfect_configuration(n, PARAMS).states()
    rendering = render_segment_ids(states, PARAMS)
    assert "[L]" in rendering
    assert "id=" in rendering
    assert rendering.count("border=") == 3


def test_render_handles_borderless_configuration():
    states = [state._replace(dist=1) for state in perfect_configuration(12, PARAMS)]
    assert "violates" in render_segment_ids(states, PARAMS)


def test_segment_id_of_known_bits():
    states = perfect_configuration(12, PARAMS, start_id=5).states()
    first_interior = segments(states, PARAMS)[1]
    assert segment_id(states, first_interior) == 6
