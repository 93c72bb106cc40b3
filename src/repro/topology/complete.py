"""Complete-graph populations.

Most of the population-protocol literature studies complete graphs (every
ordered pair of distinct agents may interact).  The target paper works on
rings, but the complete graph is provided both as a substrate for sanity
checks of the simulation engine and because the Table-1 discussion contrasts
ring results against the complete-graph impossibility of SS-LE without extra
assumptions.

The arc set is *implicit*: a complete graph on ``n`` agents has ``n*(n-1)``
arcs, which at ``n = 10^4`` is ~10^8 tuples nobody should ever allocate just
so a scheduler can index them uniformly.  :class:`CompleteGraph` therefore
answers every :class:`~repro.topology.graph.Population` query in closed form
(``arc_by_index``, ``sample_arc``, neighbors, degrees) and only materializes
the full arc list if the :attr:`arcs` property is explicitly read.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.errors import InvalidParameterError, TopologyError
from repro.topology.graph import Arc, Population


class CompleteGraph(Population):
    """Complete population: every ordered pair of distinct agents is an arc."""

    def __init__(self, size: int) -> None:
        if size < 2:
            raise InvalidParameterError(f"a complete graph needs at least 2 agents, got {size}")
        # Deliberately does NOT call Population.__init__: the base constructor
        # materializes and validates an explicit arc list, which is exactly
        # what this class exists to avoid.  Every method of Population that
        # touches ``_arcs`` is overridden below with a closed form.
        self._size = size
        self._name = f"complete(n={size})"
        self._materialized: Optional[Tuple[Arc, ...]] = None

    # ------------------------------------------------------------------ #
    # Arc access, in closed form
    # ------------------------------------------------------------------ #
    @property
    def arcs(self) -> Tuple[Arc, ...]:
        """The full arc list, materialized lazily on first access.

        Prefer :meth:`arc_by_index` / :meth:`sample_arc`, which never
        allocate; this property exists for callers that genuinely need the
        whole enumeration (tests, exhaustive analyses).
        """
        if self._materialized is None:
            self._materialized = tuple(
                (initiator, responder)
                for initiator in range(self._size)
                for responder in range(self._size)
                if initiator != responder
            )
        return self._materialized

    @property
    def num_arcs(self) -> int:
        return self._size * (self._size - 1)

    @property
    def has_materialized_arcs(self) -> bool:
        return self._materialized is not None

    def arc_by_index(self, index: int) -> Arc:
        """Closed-form indexing matching the eager enumeration order.

        Arc ``index`` has initiator ``index // (n-1)``; the responder is the
        ``index % (n-1)``-th agent of ``0..n-1`` with the initiator skipped.
        """
        if not 0 <= index < self.num_arcs:
            raise TopologyError(
                f"arc index {index} outside [0, {self.num_arcs}) for {self._name!r}"
            )
        initiator, offset = divmod(index, self._size - 1)
        responder = offset + 1 if offset >= initiator else offset
        return (initiator, responder)

    # ------------------------------------------------------------------ #
    # Population queries, in closed form
    # ------------------------------------------------------------------ #
    def out_neighbors(self, agent: int) -> List[int]:
        self._check_agent(agent)
        return [other for other in range(self._size) if other != agent]

    def in_neighbors(self, agent: int) -> List[int]:
        self._check_agent(agent)
        return [other for other in range(self._size) if other != agent]

    def degree(self, agent: int) -> int:
        self._check_agent(agent)
        return 2 * (self._size - 1)

    def has_arc(self, initiator: int, responder: int) -> bool:
        return (
            0 <= initiator < self._size
            and 0 <= responder < self._size
            and initiator != responder
        )
