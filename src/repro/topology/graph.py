"""Population graphs.

A population is a weakly connected digraph ``G = (V, E)`` (Section 2).  Agents
are identified by indices ``0 .. n-1``; each arc ``(u, v)`` is a possible
interaction in which ``u`` is the initiator and ``v`` the responder.

:class:`Population` is the generic container; the :mod:`repro.topology.ring`
and :mod:`repro.topology.complete` modules provide the concrete families used
by the paper.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.errors import InvalidParameterError, TopologyError
from repro.core.rng import RandomSource

#: An arc of the population graph: (initiator index, responder index).
Arc = Tuple[int, int]


class Population:
    """A population graph over agents ``0 .. n-1`` with an explicit arc list.

    Parameters
    ----------
    size:
        Number of agents ``n`` (must be at least 2, as the paper assumes).
    arcs:
        Iterable of ``(initiator, responder)`` pairs.  Duplicate arcs are
        rejected; self-loops are rejected.
    name:
        Human readable description used in reports.
    """

    def __init__(self, size: int, arcs: Iterable[Arc], name: str = "population") -> None:
        if size < 2:
            raise InvalidParameterError(f"a population needs at least 2 agents, got {size}")
        self._size = size
        self._name = name
        arc_list: List[Arc] = []
        seen = set()
        # The adjacency index: out-/in-neighbor lists in arc-enumeration
        # order plus the arc set, built once here so has_arc / degree /
        # out_neighbors / in_neighbors are O(1)-ish lookups instead of
        # O(|E|) rescans of the arc list per query.
        out_lists: List[List[int]] = [[] for _ in range(size)]
        in_lists: List[List[int]] = [[] for _ in range(size)]
        for arc in arcs:
            initiator, responder = arc
            self._check_agent(initiator)
            self._check_agent(responder)
            if initiator == responder:
                raise TopologyError(f"self-loop arc {arc} is not allowed")
            if arc in seen:
                raise TopologyError(f"duplicate arc {arc}")
            seen.add(arc)
            arc_list.append((initiator, responder))
            out_lists[initiator].append(responder)
            in_lists[responder].append(initiator)
        if not arc_list:
            raise TopologyError("a population needs at least one arc")
        self._arcs: Tuple[Arc, ...] = tuple(arc_list)
        self._arc_set = seen
        self._out_lists = out_lists
        self._in_lists = in_lists
        self._check_weakly_connected()

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of agents ``n``."""
        return self._size

    @property
    def name(self) -> str:
        """Human readable name."""
        return self._name

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        """All possible interactions as (initiator, responder) pairs.

        Subclasses with an implicit arc set (e.g. :class:`CompleteGraph`)
        override this to materialize lazily; uniform sampling should go
        through :meth:`sample_arc` / :meth:`arc_by_index`, which never force
        the materialization.
        """
        return self._arcs

    @property
    def num_arcs(self) -> int:
        """Number of arcs ``|E|`` (without materializing an implicit arc set)."""
        return len(self._arcs)

    @property
    def has_materialized_arcs(self) -> bool:
        """True when :attr:`arcs` is already allocated (free to index).

        Lazy subclasses return False until the arc list has actually been
        built; hot paths use this to decide between indexing the list and
        the closed-form :meth:`arc_by_index` — without ever forcing the
        materialization themselves.
        """
        return True

    def arc_by_index(self, index: int) -> Arc:
        """The arc at position ``index`` of the arc enumeration.

        ``index`` must be in ``[0, num_arcs)``; the enumeration order matches
        :attr:`arcs`.  Subclasses with implicit arc sets override this with a
        closed form so indexing needs no arc list.
        """
        if not 0 <= index < self.num_arcs:
            raise TopologyError(
                f"arc index {index} outside [0, {self.num_arcs}) for {self._name!r}"
            )
        return self._arcs[index]

    def sample_arc(self, rng: "RandomSource") -> Arc:
        """One uniformly random arc, using a single ``randrange(num_arcs)`` draw.

        This is the hot path of the uniformly random scheduler; the single
        draw keeps random streams bit-identical to indexing an explicit arc
        list, while letting implicit-arc populations avoid allocating it.
        """
        return self.arc_by_index(rng.randrange(self.num_arcs))

    def agents(self) -> range:
        """Iterator over agent indices."""
        return range(self._size)

    def out_neighbors(self, agent: int) -> List[int]:
        """Agents that ``agent`` can initiate an interaction with.

        Ordered by the arc enumeration; returns a copy, so callers may
        mutate the result without corrupting the shared adjacency index.
        """
        self._check_agent(agent)
        return list(self._out_lists[agent])

    def in_neighbors(self, agent: int) -> List[int]:
        """Agents that can initiate an interaction with ``agent``.

        Ordered by the arc enumeration; returns a copy (see
        :meth:`out_neighbors`).
        """
        self._check_agent(agent)
        return list(self._in_lists[agent])

    def degree(self, agent: int) -> int:
        """Number of arcs incident to ``agent`` in either direction."""
        self._check_agent(agent)
        return len(self._out_lists[agent]) + len(self._in_lists[agent])

    def has_arc(self, initiator: int, responder: int) -> bool:
        """True when ``(initiator, responder)`` is a possible interaction."""
        return (initiator, responder) in self._arc_set

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_agent(self, agent: int) -> None:
        if not 0 <= agent < self._size:
            raise TopologyError(f"agent index {agent} outside population of size {self._size}")

    def _check_weakly_connected(self) -> None:
        visited = {0}
        frontier = [0]
        while frontier:
            current = frontier.pop()
            for neighbor in self._out_lists[current] + self._in_lists[current]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        if len(visited) != self._size:
            raise TopologyError("population graph must be weakly connected")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Population {self._name!r} n={self._size} arcs={self.num_arcs}>"


def population_from_edges(size: int, edges: Sequence[Tuple[int, int]], directed: bool,
                          name: str = "custom") -> Population:
    """Build a population from an edge list.

    When ``directed`` is False every edge ``(u, v)`` contributes both arcs
    ``(u, v)`` and ``(v, u)``, matching the paper's undirected-ring model in
    Section 5.
    """
    arcs: List[Arc] = []
    for u, v in edges:
        arcs.append((u, v))
        if not directed:
            arcs.append((v, u))
    return Population(size, arcs, name=name)
