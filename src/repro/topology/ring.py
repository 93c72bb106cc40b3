"""Ring populations.

The paper's main protocol ``P_PL`` runs on a *directed* ring: agents
``u_0 .. u_{n-1}`` with arcs ``(u_i, u_{i+1 mod n})`` where ``u_i`` is the
initiator (left neighbor) and ``u_{i+1}`` the responder (right neighbor).

Section 5 removes the orientation assumption; the ring-orientation protocol
``P_OR`` runs on the *undirected* ring that contains both arc directions.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.errors import InvalidParameterError, TopologyError
from repro.topology.graph import Arc, Population


class DirectedRing(Population):
    """Directed ring ``u_0 -> u_1 -> ... -> u_{n-1} -> u_0``.

    The arc ``(i, i+1 mod n)`` has index ``i`` and is referred to as ``e_i``
    in the paper; :meth:`arc_index` and :meth:`arc_by_index` convert between
    the two representations.
    """

    def __init__(self, size: int) -> None:
        if size < 2:
            raise InvalidParameterError(f"a ring needs at least 2 agents, got {size}")
        arcs = [(i, (i + 1) % size) for i in range(size)]
        super().__init__(size, arcs, name=f"directed-ring(n={size})")

    # ------------------------------------------------------------------ #
    # Ring-specific helpers
    # ------------------------------------------------------------------ #
    def left_neighbor(self, agent: int) -> int:
        """Index of ``u_{agent-1 mod n}``."""
        return (agent - 1) % self.size

    def right_neighbor(self, agent: int) -> int:
        """Index of ``u_{agent+1 mod n}``."""
        return (agent + 1) % self.size

    def arc_e(self, index: int) -> Arc:
        """The paper's interaction ``e_index = (u_{index mod n}, u_{index+1 mod n})``.

        The paper indexes arcs modularly (``e_{i+n} = e_i``), which the
        ``seq_R``/``seq_L`` sweep builders rely on.  This helper carries that
        notation; :meth:`arc_by_index` keeps the strict
        :class:`~repro.topology.graph.Population` contract of rejecting
        indices outside ``[0, num_arcs)``.
        """
        return (index % self.size, (index + 1) % self.size)

    def arc_by_index(self, index: int) -> Arc:
        """Closed-form arc lookup honouring the base-class range contract."""
        if not 0 <= index < self.size:
            raise TopologyError(
                f"arc index {index} outside [0, {self.size}) for {self.name!r}"
            )
        return self.arc_e(index)

    def arc_index(self, arc: Arc) -> int:
        """Inverse of :meth:`arc_by_index`."""
        initiator, responder = arc
        if responder != (initiator + 1) % self.size:
            raise TopologyError(f"{arc} is not an arc of the directed ring")
        return initiator

    def clockwise_distance(self, source: int, target: int) -> int:
        """Number of clockwise hops from ``source`` to ``target``."""
        return (target - source) % self.size


class UndirectedRing(Population):
    """Ring containing both arc directions, used by ``P_OR`` (Section 5)."""

    def __init__(self, size: int) -> None:
        if size < 3:
            raise InvalidParameterError(
                f"an undirected ring needs at least 3 agents to be simple, got {size}"
            )
        arcs: List[Arc] = []
        for i in range(size):
            arcs.append((i, (i + 1) % size))
            arcs.append(((i + 1) % size, i))
        super().__init__(size, arcs, name=f"undirected-ring(n={size})")

    def neighbors(self, agent: int) -> Tuple[int, int]:
        """The two ring neighbors ``(u_{agent-1}, u_{agent+1})``."""
        return ((agent - 1) % self.size, (agent + 1) % self.size)
