"""Exact expected hitting times on the annotated configuration graph.

Under the uniform scheduler every step draws one of the population's
``m = len(arcs)`` arcs uniformly, so the configuration graph *is* a Markov
chain once each node's moving arcs are weighted ``1/m`` and the remaining
``(m - k)/m`` mass stays put as a lazy self-loop.  The expected number of
scheduler steps to reach the legal set from node ``i`` then solves the
absorbing-chain system

    h_i = 0                                    (i legal)
    h_i = 1 + ((m - k_i)/m) h_i + sum_{j in S_i} (1/m) h_j   (otherwise)

where ``S_i`` is the multiset of moving-arc successors.  Multiplying by
``m`` and collecting ``h_i`` gives the sparse linear system solved here —
which is exactly what every engine's ``run_until(check_interval=1)`` step
count estimates, because ``Simulation.step`` counts *all* scheduled
interactions, moving or not.

Two solvers, chosen by system size:

* ``exact`` — sparse Gaussian elimination over ``fractions.Fraction``
  with greedy minimum-degree pivoting: bit-exact rationals, feasible to
  roughly a thousand transient unknowns;
* ``iterative`` — Gauss-Seidel sweeps in float, nodes ordered by BFS
  distance from the legal set (boundary first, so information flows
  inward within a single sweep), iterated to a **residual certificate**:
  the reported ``residual`` bounds ``max_i |h_i - (1 + (P h)_i)|``, the
  defect of the returned vector under the true kernel — the caller gets
  a proof-carrying float answer, not a convergence hope.

Both solvers read *rows* compiled once before the solve: the transient
nodes in sweep order, each with the tuple of its moving-arc targets other
than itself.  A sweep then walks Python lists and tuples only.

``h = inf`` means the legal set is reached with probability below 1.
Found by reverse BFS before any solve, such a node either cannot reach
the legal set at all (a stabilization violation the qualitative checker
reports) or can move, through illegal configurations, into one that
cannot: with positive probability the chain never arrives.

Everything here consumes the duck-typed graph surface (``num_configs``,
``successors``, ``arcs``) shared by :class:`repro.check.graph.ConfigurationGraph`
and :class:`repro.check.symmetry.QuotientGraph`, so symmetry reduction is
transparent: the quotient chain is lumpable, hence its hitting times equal
the full chain's.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import InvalidParameterError

#: Largest transient-unknown count solved exactly with Fractions; beyond
#: it the iterative float path (with its residual certificate) takes over.
#: Elimination fill-in makes the exact path roughly cubic, and rational
#: arithmetic grows digits fast — ~1k unknowns is seconds, 10k is hours.
DEFAULT_EXACT_LIMIT = 600

#: Residual target of the iterative solver, in expected-steps units.
DEFAULT_TOL = 1e-9

#: Gauss-Seidel sweep budget; each sweep costs O(edges).
DEFAULT_MAX_SWEEPS = 20_000


@dataclass
class HittingTimes:
    """Expected steps-to-legal per node, with the solve's provenance.

    ``values[i]`` is a :class:`~fractions.Fraction` (exact path), a float
    (iterative path), ``0`` for legal nodes, or ``math.inf`` for nodes
    that reach the legal set with probability below 1.
    """

    values: List[object]
    #: "exact" (Fraction elimination) or "iterative" (certified float).
    method: str
    #: Certified bound on ``max_i |h_i - (1 + (P h)_i)|`` (0 when exact).
    residual: float
    #: Gauss-Seidel sweeps executed (0 when exact).
    sweeps: int
    #: Nodes with ``h = inf``.
    unreachable: int
    transient: int

    @property
    def certified(self) -> bool:
        """Did the solve meet its tolerance (always true for exact)?"""
        return self.method == "exact" or self.residual <= self.tolerance

    tolerance: float = DEFAULT_TOL

    def value_as_float(self, node: int) -> float:
        value = self.values[node]
        return float(value)


def _forward_csr(graph) -> Tuple[array, array]:
    """Moving-arc successor lists of every node, flattened CSR-style.

    One entry per moving arc (duplicates preserved — they carry
    probability mass ``1/m`` each).
    """
    total = graph.num_configs
    offsets = array("l", [0]) * (total + 1)
    targets = array("q")
    successors = graph.successors
    for node in range(total):
        succs = successors(node)
        targets.extend(succs)
        offsets[node + 1] = offsets[node] + len(succs)
    return offsets, targets


def _reverse_reachable(total: int, offsets: array, targets: array,
                       legal: bytearray) -> Tuple[bytearray, array]:
    """Which nodes reach the legal set with probability 1, and how far.

    A reverse BFS from the legal set marks every node that can reach it,
    with its distance in *edge hops* from the legal boundary (legal nodes
    are 0); the distance orders the Gauss-Seidel sweep so each update sees
    the freshest downstream values.  A second reverse BFS, from the nodes
    the first one missed and over non-legal predecessors, unmarks every
    node that can move into one of them: from there the chain is trapped
    with positive probability, so its hitting time is infinite too.
    """
    predecessors_count = array("l", [0]) * total
    for target in targets:
        predecessors_count[target] += 1
    reverse_offsets = array("l", accumulate(predecessors_count, initial=0))
    cursor = reverse_offsets[:total]
    reverse_targets = array("q", [0]) * len(targets)
    for node in range(total):
        for target in targets[offsets[node]:offsets[node + 1]]:
            reverse_targets[cursor[target]] = node
            cursor[target] += 1

    reachable = bytearray(total)
    distance = array("l", [-1]) * total
    frontier: List[int] = []
    for node in range(total):
        if legal[node]:
            reachable[node] = 1
            distance[node] = 0
            frontier.append(node)
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for node in frontier:
            for source in reverse_targets[reverse_offsets[node]:
                                          reverse_offsets[node + 1]]:
                if not reachable[source]:
                    reachable[source] = 1
                    distance[source] = depth
                    next_frontier.append(source)
        frontier = next_frontier

    frontier = [node for node in range(total) if not reachable[node]]
    while frontier:
        next_frontier = []
        for node in frontier:
            for source in reverse_targets[reverse_offsets[node]:
                                          reverse_offsets[node + 1]]:
                if reachable[source] and not legal[source]:
                    reachable[source] = 0
                    next_frontier.append(source)
        frontier = next_frontier
    return reachable, distance


def _compile_rows(transient: List[int], distance: array, offsets: array,
                  targets: array) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The transient nodes in sweep order, and each one's row.

    Nodes are ordered by distance from the legal set (ties by node id).  A
    row holds the node's moving-arc targets in CSR order, minus the arcs
    that stay on the node, so its length is the node's effective outflow.
    Rows hold one shared int object per node rather than a fresh int per
    arc, so a row costs little more than its tuple.
    """
    order = sorted(transient, key=distance.__getitem__)
    ids = list(range(len(distance)))
    nodes = [ids[node] for node in order]
    rows = [tuple([ids[target]
                   for target in targets[offsets[node]:offsets[node + 1]]
                   if target != node])
            for node in order]
    return nodes, rows


def _solve_exact(nodes: List[int], rows: List[Tuple[int, ...]],
                 legal: bytearray, num_arcs: int) -> Dict[int, Fraction]:
    """Sparse rational Gaussian elimination with greedy min-degree pivots.

    Row ``i``: ``d_i h_i - sum_j w_ij h_j = m`` with ``d_i`` the number of
    moving arcs leaving the orbit/node and ``w_ij`` the multiplicity of
    transient successor ``j`` (legal successors contribute 0 and vanish).
    """
    position_of = {node: slot for slot, node in enumerate(nodes)}
    count = len(nodes)
    equations: List[Dict[int, Fraction]] = []
    rhs: List[Fraction] = []
    columns: List[set] = [set() for _ in range(count)]
    for slot, row in enumerate(rows):
        weights: Dict[int, int] = {}
        for target in row:
            if not legal[target]:
                slot_j = position_of[target]
                weights[slot_j] = weights.get(slot_j, 0) + 1
        if not row:
            raise InvalidParameterError(
                "transient node with no outflow reached the exact solver; "
                "reverse reachability should have excluded it")
        equation = {slot: Fraction(len(row))}
        for slot_j, weight in weights.items():
            equation[slot_j] = Fraction(-weight)
            columns[slot_j].add(slot)
        columns[slot].add(slot)
        equations.append(equation)
        rhs.append(Fraction(num_arcs))

    eliminated: List[Tuple[int, Dict[int, Fraction], Fraction]] = []
    remaining = set(range(count))
    while remaining:
        pivot = min(remaining, key=lambda slot: len(equations[slot]))
        remaining.discard(pivot)
        pivot_row = equations[pivot]
        pivot_rhs = rhs[pivot]
        pivot_coeff = pivot_row.pop(pivot)
        columns[pivot].discard(pivot)
        for other in list(columns[pivot]):
            if other == pivot or other not in remaining:
                continue
            factor = equations[other].pop(pivot) / pivot_coeff
            rhs[other] -= factor * pivot_rhs
            for slot_j, coeff in pivot_row.items():
                updated = equations[other].get(slot_j, Fraction(0)) - factor * coeff
                if updated:
                    equations[other][slot_j] = updated
                    columns[slot_j].add(other)
                else:
                    equations[other].pop(slot_j, None)
                    columns[slot_j].discard(other)
        columns[pivot].clear()
        eliminated.append((pivot, pivot_row, pivot_rhs / pivot_coeff))
        # Normalize the stored row once so back-substitution is a plain dot.
        eliminated[-1] = (pivot,
                          {slot_j: coeff / pivot_coeff
                           for slot_j, coeff in pivot_row.items()},
                          pivot_rhs / pivot_coeff)

    solution: Dict[int, Fraction] = {}
    for pivot, row, value in reversed(eliminated):
        total = value
        for slot_j, coeff in row.items():
            total -= coeff * solution[slot_j]
        solution[pivot] = total
    return {nodes[slot]: value for slot, value in solution.items()}


def _solve_iterative(nodes: List[int], rows: List[Tuple[int, ...]],
                     num_arcs: int, total: int, tol: float, max_sweeps: int,
                     ) -> Tuple[List[float], float, int]:
    """Gauss-Seidel over the sweep-ordered rows, iterated to a residual
    certificate.  Legal nodes keep ``0.0``."""
    values = [0.0] * total
    degrees = [len(row) for row in rows]
    start = float(num_arcs)
    sweeps = 0
    residual = math.inf
    while sweeps < max_sweeps:
        sweeps += 1
        delta = 0.0
        for node, row, degree in zip(nodes, rows, degrees):
            acc = start
            for target in row:
                acc += values[target]
            updated = acc / degree
            shift = abs(updated - values[node])
            if shift > delta:
                delta = shift
            values[node] = updated
        if delta <= tol / 4:
            # Candidate convergence — confirm with a true residual pass.
            residual = _residual(nodes, rows, degrees, values, num_arcs)
            if residual <= tol:
                break
    else:
        residual = _residual(nodes, rows, degrees, values, num_arcs)
    if math.isinf(residual):
        residual = _residual(nodes, rows, degrees, values, num_arcs)
    return values, residual, sweeps


def _residual(nodes: List[int], rows: List[Tuple[int, ...]],
              degrees: List[int], values: List[float], num_arcs: int) -> float:
    """``max_i |h_i - (1 + (P h)_i)|`` of the candidate vector, exactly the
    defect the docstring's certificate promises (in steps units)."""
    worst = 0.0
    start = float(num_arcs)
    for node, row, degree in zip(nodes, rows, degrees):
        acc = start
        for target in row:
            acc += values[target]
        defect = abs(values[node] - acc / degree) * degree / num_arcs
        if defect > worst:
            worst = defect
    return worst


def hitting_times(graph, legal: bytearray,
                  exact_limit: int = DEFAULT_EXACT_LIMIT,
                  tol: float = DEFAULT_TOL,
                  max_sweeps: int = DEFAULT_MAX_SWEEPS) -> HittingTimes:
    """Expected steps from every node to the legal set; see module docstring.

    ``graph`` is a :class:`~repro.check.graph.ConfigurationGraph` or
    :class:`~repro.check.symmetry.QuotientGraph`; ``legal`` the matching
    mask.  Chooses the exact solver at or under ``exact_limit`` transient
    unknowns, the certified iterative solver above it.  A node gets
    ``math.inf`` when it reaches the legal set with probability below 1.
    """
    total = graph.num_configs
    if len(legal) != total:
        raise InvalidParameterError(
            f"legal mask covers {len(legal)} nodes, graph has {total}")
    num_arcs = len(graph.arcs)
    offsets, targets = _forward_csr(graph)
    reachable, distance = _reverse_reachable(total, offsets, targets, legal)

    transient = [node for node in range(total)
                 if reachable[node] and not legal[node]]
    unreachable = total - sum(reachable)

    nodes, rows = _compile_rows(transient, distance, offsets, targets)
    # The rows replace the CSR arrays: free them before the solve allocates.
    del offsets, targets
    if len(transient) <= exact_limit or not transient:
        values: List[object] = [math.inf] * total
        for node in range(total):
            if legal[node]:
                values[node] = Fraction(0)
        for node, value in _solve_exact(nodes, rows, legal, num_arcs).items():
            values[node] = value
        return HittingTimes(values=values, method="exact", residual=0.0,
                            sweeps=0, unreachable=unreachable,
                            transient=len(transient), tolerance=tol)

    values, residual, sweeps = _solve_iterative(
        nodes, rows, num_arcs, total, tol, max_sweeps)
    for node in range(total):
        if not reachable[node]:
            values[node] = math.inf
    return HittingTimes(values=values, method="iterative", residual=residual,
                        sweeps=sweeps, unreachable=unreachable,
                        transient=len(transient), tolerance=tol)


def mean_hitting_time(times: HittingTimes,
                      weights: Optional[Sequence[int]] = None) -> object:
    """Weighted mean of ``values`` (uniform over nodes when unweighted).

    With a quotient graph, pass ``orbit_sizes`` so the mean is uniform
    over *configurations*, not orbits.  Returns a Fraction when every
    addend is exact, a float otherwise, and ``inf`` when any node with
    positive weight cannot reach the legal set.
    """
    values = times.values
    if weights is None:
        weights = [1] * len(values)
    if len(weights) != len(values):
        raise InvalidParameterError(
            f"{len(weights)} weights for {len(values)} nodes")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise InvalidParameterError("weights must sum to a positive total")
    accumulator: object = Fraction(0)
    for value, weight in zip(values, weights):
        if not weight:
            continue
        if isinstance(value, float):
            if math.isinf(value):
                return math.inf
            accumulator = float(accumulator) + value * weight
        else:
            accumulator = accumulator + value * weight
    if isinstance(accumulator, Fraction):
        return accumulator / total_weight
    return accumulator / total_weight


def worst_start(times: HittingTimes) -> Tuple[Optional[int], object]:
    """The exact worst-case start: ``(node, value)`` maximizing ``h``.

    Unreachable nodes dominate (``inf``); ties break toward the smallest
    node id so reports are deterministic.
    """
    worst_node: Optional[int] = None
    worst_value: object = None
    for node, value in enumerate(times.values):
        if isinstance(value, float) and math.isinf(value):
            return node, math.inf
        if worst_value is None or value > worst_value:
            worst_node, worst_value = node, value
    return worst_node, worst_value
