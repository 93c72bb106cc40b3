"""2D torus populations.

A ``width x height`` torus is the grid graph with wraparound in both
dimensions: agent ``(r, c)`` (stored row-major as index ``r*width + c``) is
connected to its four lattice neighbors, and every edge contributes both
arcs.  Tori are the standard "local interactions, no orientation" contrast to
the paper's directed ring — constant degree like the ring, but with a
2-dimensional neighborhood structure.

Like :class:`~repro.topology.complete.CompleteGraph`, the arc set is
*implicit*: ``4n`` arcs in the closed-form enumeration ``arc index =
4*agent + direction`` with directions ordered (right, down, left, up), so
schedulers can index arcs uniformly without the arc list ever being
allocated.  The :attr:`arcs` property materializes lazily for callers that
genuinely need the whole enumeration.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.errors import InvalidParameterError, TopologyError
from repro.topology.graph import Arc, Population


def require_torus_dimensions(width: int, height: int) -> None:
    """Reject dimensions no simple torus exists for (shared with the registry
    validator so pre-run checks raise exactly like the constructor)."""
    if width < 3 or height < 3:
        # Below 3 the wraparound neighbors coincide (the "torus" would
        # need duplicate arcs), exactly like UndirectedRing's minimum.
        raise InvalidParameterError(
            f"a torus needs both dimensions >= 3 to be simple, "
            f"got {width}x{height}"
        )


class Torus2D(Population):
    """Bidirectional ``width x height`` torus over row-major agent indices."""

    #: Direction order of the arc enumeration: (dr, dc) per direction slot.
    _DIRECTIONS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (0, -1), (-1, 0))

    def __init__(self, width: int, height: int) -> None:
        require_torus_dimensions(width, height)
        # Deliberately does NOT call Population.__init__: the base constructor
        # materializes and validates an explicit arc list; every Population
        # query is answered in closed form below instead (a torus is always
        # weakly connected, so nothing needs validating).
        self._width = width
        self._height = height
        self._size = width * height
        self._name = f"torus({width}x{height})"
        self._materialized: Optional[Tuple[Arc, ...]] = None

    # ------------------------------------------------------------------ #
    # Torus-specific helpers
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> int:
        """Number of columns."""
        return self._width

    @property
    def height(self) -> int:
        """Number of rows."""
        return self._height

    def coordinates(self, agent: int) -> Tuple[int, int]:
        """The ``(row, column)`` of an agent index."""
        self._check_agent(agent)
        return divmod(agent, self._width)

    def agent_at(self, row: int, column: int) -> int:
        """The agent index at ``(row, column)``, with wraparound."""
        return (row % self._height) * self._width + (column % self._width)

    def _neighbor(self, agent: int, direction: int) -> int:
        row, column = divmod(agent, self._width)
        dr, dc = self._DIRECTIONS[direction]
        return self.agent_at(row + dr, column + dc)

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
                self.arc_by_index(index) for index in range(self.num_arcs)
            )
        return self._materialized

    @property
    def num_arcs(self) -> int:
        return 4 * self._size

    @property
    def has_materialized_arcs(self) -> bool:
        return self._materialized is not None

    def arc_by_index(self, index: int) -> Arc:
        """Closed-form indexing: arc ``4*agent + direction``."""
        if not 0 <= index < self.num_arcs:
            raise TopologyError(
                f"arc index {index} outside [0, {self.num_arcs}) for {self._name!r}"
            )
        agent, direction = divmod(index, 4)
        return (agent, self._neighbor(agent, direction))

    # ------------------------------------------------------------------ #
    # Population queries, in closed form
    # ------------------------------------------------------------------ #
    def out_neighbors(self, agent: int) -> List[int]:
        self._check_agent(agent)
        return [self._neighbor(agent, direction) for direction in range(4)]

    def in_neighbors(self, agent: int) -> List[int]:
        # Every lattice neighbor initiates back; order by the arc
        # enumeration, i.e. ascending initiator index (matching what the
        # base class would report for the materialized arc list).
        self._check_agent(agent)
        return sorted(self._neighbor(agent, direction) for direction in range(4))

    def degree(self, agent: int) -> int:
        self._check_agent(agent)
        return 8  # 4 out-arcs + 4 in-arcs

    def has_arc(self, initiator: int, responder: int) -> bool:
        if not (0 <= initiator < self._size and 0 <= responder < self._size):
            return False
        return any(self._neighbor(initiator, direction) == responder
                   for direction in range(4))
