"""Hitting-time solver: hand-checked chains, exact/iterative agreement,
unreachable handling, and means/worst-case extraction."""

import math
from fractions import Fraction

import pytest

from repro.check.graph import ConfigurationGraph
from repro.check.probability import (
    hitting_times,
    mean_hitting_time,
    worst_start,
)
from repro.check.symmetry import QuotientGraph, RotationSymmetry
from repro.core.errors import InvalidParameterError
from repro.topology.ring import DirectedRing


def ring_graph(num_states, num_agents, rule):
    initiator_out, responder_out, changed = [], [], []
    for i in range(num_states):
        for r in range(num_states):
            out_i, out_r = rule(i, r)
            initiator_out.append(out_i)
            responder_out.append(out_r)
            changed.append((out_i, out_r) != (i, r))
    return ConfigurationGraph(
        num_states, num_agents, DirectedRing(num_agents).arcs,
        initiator_out, responder_out, changed)


def max_rule(i, r):
    return i, max(i, r)


def all_ones_mask(graph):
    mask = bytearray(graph.num_configs)
    for node in range(graph.num_configs):
        mask[node] = 1 if all(d == 1 for d in graph.digits(node)) else 0
    return mask


def test_hand_checked_two_agent_chain():
    # Max-propagation on the 2-ring (m = 2 arcs).  From (1, 0) exactly
    # one arc moves (probability 1/2), landing legal: h solves
    # 2h = 2 + h, i.e. h = 2 — and exactly, as a Fraction.
    graph = ring_graph(2, 2, max_rule)
    times = hitting_times(graph, all_ones_mask(graph))
    assert times.method == "exact" and times.certified
    by_digits = {tuple(graph.digits(node)): times.values[node]
                 for node in range(graph.num_configs)}
    assert by_digits[(1, 1)] == 0
    assert by_digits[(1, 0)] == Fraction(2)
    assert by_digits[(0, 1)] == Fraction(2)
    # All-zeros has no moving arc: the legal set is unreachable from it.
    assert math.isinf(by_digits[(0, 0)])
    assert times.unreachable == 1
    assert times.transient == 2


def test_livelocked_chain_is_all_unreachable():
    # The pure swap rule never creates a 1: only (1, 1) is legal and
    # nothing else can reach it.
    graph = ring_graph(2, 2, lambda i, r: (r, i))
    times = hitting_times(graph, all_ones_mask(graph))
    assert times.unreachable == 3
    assert times.values[graph.encode((1, 1))] == 0
    node, value = worst_start(times)
    assert math.isinf(value)


def table_rule(moves):
    """A rule that applies ``moves[(i, r)]`` and leaves other pairs alone."""
    return lambda i, r: moves.get((i, r), (i, r))


@pytest.mark.parametrize("exact_limit", [600, 0])
def test_a_node_that_can_move_into_a_trap_never_surely_converges(exact_limit):
    # From (1, 0) one arc lands legal and the other on the trap (1, 2),
    # which has no moving arc: the legal set is reached with probability
    # 1/2, so the expected time is infinite.  (0, 1) mirrors it.
    graph = ring_graph(3, 2, table_rule({(1, 0): (1, 1), (0, 1): (2, 1)}))
    times = hitting_times(graph, all_ones_mask(graph), exact_limit=exact_limit)
    assert math.isinf(times.values[graph.encode((1, 0))])
    assert math.isinf(times.values[graph.encode((0, 1))])
    assert times.values[graph.encode((1, 1))] == 0
    assert times.unreachable == 8 and times.transient == 0


@pytest.mark.parametrize("exact_limit", [600, 0])
def test_trap_verdicts_spread_back_over_illegal_predecessors(exact_limit):
    # (3, 0) moves only to (1, 0), which can fall into a trap: both are
    # infinite.  (1, 3) moves only into the legal set: h solves
    # 2h = 2 + h, so h = 2, in either solver.
    graph = ring_graph(4, 2, table_rule({(1, 0): (1, 1), (0, 1): (2, 1),
                                         (3, 0): (1, 0), (1, 3): (1, 1)}))
    times = hitting_times(graph, all_ones_mask(graph), exact_limit=exact_limit)
    for digits in ((1, 0), (0, 1), (3, 0), (0, 3)):
        assert math.isinf(times.values[graph.encode(digits)]), digits
    for digits in ((1, 3), (3, 1)):
        assert times.values[graph.encode(digits)] == 2, digits
    assert times.transient == 2 and times.unreachable == 13
    assert times.method == ("exact" if exact_limit else "iterative")


def test_iterative_solver_matches_exact():
    graph = ring_graph(3, 4, max_rule)
    legal = bytearray(1 if all(d == 2 for d in graph.digits(node)) else 0
                      for node in range(graph.num_configs))
    exact = hitting_times(graph, legal)
    assert exact.method == "exact"
    iterative = hitting_times(graph, legal, exact_limit=0)
    assert iterative.method == "iterative"
    assert iterative.certified
    assert iterative.residual <= iterative.tolerance
    assert iterative.sweeps > 0
    for node in range(graph.num_configs):
        reference = exact.values[node]
        value = iterative.values[node]
        if isinstance(reference, float) and math.isinf(reference):
            assert math.isinf(value)
        else:
            assert abs(float(reference) - float(value)) < 1e-6


def test_quotient_hitting_times_equal_full_chain():
    # Lumpability, numerically: every configuration's expected time in
    # the full chain equals its orbit's in the quotient chain.
    graph = ring_graph(2, 4, max_rule)
    legal = all_ones_mask(graph)
    full = hitting_times(graph, legal)
    quotient_graph = QuotientGraph(graph, RotationSymmetry(4))
    quotient_legal = quotient_graph.legal_mask(
        lambda states: all(s == 1 for s in states), [0, 1])
    quotient = hitting_times(quotient_graph, quotient_legal)
    assert full.method == "exact" and quotient.method == "exact"
    for node in range(graph.num_configs):
        orbit = quotient_graph.orbit_of(graph.digits(node))
        reference = full.values[node]
        value = quotient.values[orbit]
        if isinstance(reference, float) and math.isinf(reference):
            assert math.isinf(value)
        else:
            assert value == reference  # Fraction equality: exact or bust
    # The uniform-over-configurations mean needs orbit weights.
    assert mean_hitting_time(quotient, weights=quotient_graph.orbit_sizes) \
        == mean_hitting_time(full)


def test_mean_hitting_time_exactness_and_inf():
    graph = ring_graph(2, 2, max_rule)
    times = hitting_times(graph, all_ones_mask(graph))
    # (0, 0) is unreachable, so the unweighted mean diverges ...
    assert math.isinf(mean_hitting_time(times))
    # ... but the mean over the reachable starts is exact.
    weights = [0 if math.isinf(float(value)) else 1
               for value in times.values]
    mean = mean_hitting_time(times, weights=weights)
    assert mean == Fraction(4, 3)
    with pytest.raises(InvalidParameterError):
        mean_hitting_time(times, weights=[1])
    with pytest.raises(InvalidParameterError):
        mean_hitting_time(times, weights=[0] * len(times.values))


def test_worst_start_breaks_ties_deterministically():
    graph = ring_graph(2, 2, max_rule)
    times = hitting_times(graph, all_ones_mask(graph))
    node, value = worst_start(times)
    # inf dominates every finite time; (0, 0) is node 0.
    assert node == graph.encode((0, 0))
    assert math.isinf(value)


def test_legal_mask_length_is_validated():
    graph = ring_graph(2, 2, max_rule)
    with pytest.raises(InvalidParameterError):
        hitting_times(graph, bytearray(3))


def test_all_legal_graph_short_circuits():
    graph = ring_graph(2, 2, max_rule)
    times = hitting_times(graph, bytearray([1]) * graph.num_configs)
    assert times.transient == 0 and times.unreachable == 0
    assert all(value == 0 for value in times.values)
