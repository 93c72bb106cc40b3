"""Baseline [5]: Angluin, Aspnes, Fischer, Jiang 2008 — SS-LE on rings of size not a multiple of ``k``.

The assumption: the ring size ``n`` is *not* a multiple of a known constant
``k`` (for example, rings of odd size with ``k = 2``).  The detection
principle: label every agent with a value in ``Z_k`` that must increase by
one (mod ``k``) along the ring away from a leader.  On a leaderless ring such
a labelling cannot be globally consistent — consistency all the way around
would force ``k | n`` — so some agent always witnesses a local violation and
can become a leader.  With a leader present, a consistent labelling exists
and, once reached, no violation is ever witnessed again.

Substitution (see DESIGN.md): the original paper's transition table is not
reproduced in the target paper; we implement the detection principle above
with the modern bullets-and-shields elimination (Algorithm 5).  A follower
that witnesses a violation resolves it with the scheduler's coin: it either
*adopts* the recomputed label (repairing stale damage left behind by an
eliminated leader) or *becomes a leader* (the detection branch).  Both
branches are exercised with probability 1, which keeps the protocol
self-stabilizing: stale violations are eventually repaired, genuine
leaderlessness eventually creates a leader.  The state budget stays
``O(k) = O(1)``; the measured convergence is faster than the original
``Theta(n^3)`` because of the borrowed elimination machinery, which the
Table-1 row states ("elimination modernised"; DESIGN.md §2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.core.errors import InvalidParameterError, InvalidStateError
from repro.core.fast_simulator import guarded, one_leader
from repro.core.protocol import LeaderElectionProtocol, require_in_range
from repro.core.rng import RandomSource
from repro.protocols.ppl.eliminate_leaders import eliminate_leaders
from repro.protocols.ppl.state import BULLET_LIVE


@dataclass(eq=True)
class AngluinState:
    """Per-agent state: leader flag, label in ``Z_k``, a coin, and the war variables.

    ``coin`` is a single bit toggled every time the agent participates in an
    interaction; because interactions arrive from the uniformly random
    scheduler, the bit observed at any particular event is an (approximately)
    fair coin independent of the labels, which is what the repair-vs-detect
    decision below needs.
    """

    __slots__ = ("leader", "label", "coin", "bullet", "shield", "signal_b")

    leader: int
    label: int
    coin: int
    bullet: int
    shield: int
    signal_b: int

    @classmethod
    def follower(cls, label: int = 0) -> "AngluinState":
        return cls(leader=0, label=label, coin=0, bullet=0, shield=0, signal_b=0)

    @classmethod
    def fresh_leader(cls) -> "AngluinState":
        return cls(leader=1, label=0, coin=0, bullet=BULLET_LIVE, shield=1, signal_b=0)

    def copy(self) -> "AngluinState":
        return AngluinState(self.leader, self.label, self.coin, self.bullet,
                            self.shield, self.signal_b)

    def become_leader(self) -> None:
        self.leader = 1
        self.label = 0
        self.bullet = BULLET_LIVE
        self.shield = 1
        self.signal_b = 0


class AngluinModKProtocol(LeaderElectionProtocol[AngluinState]):
    """Constant-state SS-LE for rings whose size is not a multiple of ``k``."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        self._k = k
        self.name = f"AngluinModK(k={k})"

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """The known constant ``k`` that must not divide the ring size."""
        return self._k

    def supports_population(self, n: int) -> bool:
        """True when the assumption ``k`` does not divide ``n`` holds."""
        return n % self._k != 0

    def transition(self, initiator: AngluinState, responder: AngluinState
                   ) -> Tuple[AngluinState, AngluinState]:
        left = initiator.copy()
        right = responder.copy()
        if right.leader == 1:
            right.label = 0
        else:
            expected = (left.label + 1) % self._k
            if right.label != expected:
                # A violation is ambiguous: it is either stale damage left
                # behind by an eliminated leader (then the follower should
                # repair, adopting the recomputed label) or evidence that no
                # leader exists (then it should become a leader).  Resolving
                # it deterministically risks a livelock in either direction,
                # so the follower consults its scheduler-driven coin: both
                # branches are taken with probability ~1/2, which repairs
                # stale damage in O(1) expected attempts while still creating
                # a leader with probability 1 on a leaderless ring.
                if right.coin == 1:
                    right.label = expected
                else:
                    right.become_leader()
            # A consistent follower keeps its label.
        left.coin = 1 - left.coin
        right.coin = 1 - right.coin
        (left.bullet, left.shield, left.signal_b,
         right.leader, right.bullet, right.shield, right.signal_b) = eliminate_leaders(
            left.leader, left.bullet, left.shield, left.signal_b,
            right.leader, right.bullet, right.shield, right.signal_b)
        return left, right

    def leader_flag(self, state: AngluinState) -> bool:
        return state.leader == 1

    def random_state(self, rng: RandomSource) -> AngluinState:
        return AngluinState(
            leader=rng.randint(0, 1),
            label=rng.randrange(self._k),
            coin=rng.randint(0, 1),
            bullet=rng.randint(0, 2),
            shield=rng.randint(0, 1),
            signal_b=rng.randint(0, 1),
        )

    def validate(self, state: AngluinState) -> None:
        if state.leader not in (0, 1):
            raise InvalidStateError(f"leader must be 0/1, got {state.leader!r}")
        require_in_range("label", state.label, 0, self._k - 1)
        require_in_range("coin", state.coin, 0, 1)
        require_in_range("bullet", state.bullet, 0, 2)
        require_in_range("shield", state.shield, 0, 1)
        require_in_range("signal_b", state.signal_b, 0, 1)

    def state_space_size(self) -> int:
        """``2 * k * 2 * 3 * 2 * 2 = O(k) = O(1)`` states per agent."""
        return 2 * self._k * 2 * 3 * 2 * 2

    def canonical_states(self) -> Iterable[AngluinState]:
        yield AngluinState.fresh_leader()
        yield AngluinState.follower(label=1)

    # ------------------------------------------------------------------ #
    # Convergence criterion
    # ------------------------------------------------------------------ #
    @guarded(one_leader)
    def is_stable(self, states: Sequence[AngluinState]) -> bool:
        """One leader, label-consistent everywhere, and no threat to the leader."""
        n = len(states)
        leaders = [i for i, state in enumerate(states) if state.leader == 1]
        if len(leaders) != 1:
            return False
        leader = leaders[0]
        for offset in range(n):
            state = states[(leader + offset) % n]
            expected = 0 if offset == 0 else (
                (states[(leader + offset - 1) % n].label + 1) % self._k
            )
            if state.label != expected:
                return False
        for agent, state in enumerate(states):
            if state.bullet == BULLET_LIVE and not _peaceful(states, agent):
                return False
        return True

    @guarded(one_leader)
    def has_undisputed_leader(self, states: Sequence[AngluinState]) -> bool:
        """Exactly one leader, and no live bullet can kill it.

        The relaxed convergence event used on non-ring topologies.  The
        label-consistency half of :meth:`is_stable` is ring-specific twice
        over: it walks agents in index order (meaningless off the ring), and
        the underlying theory needs it — a leader breaks the ring's single
        cycle, so a consistent labelling always exists, whereas on graphs
        with leader-free cycles of length not divisible by ``k`` (any torus
        with ``k`` not dividing a side, the complete graph for ``n > 2``) no
        violation-free labelling exists at all and strict stability is
        unreachable.  On such topologies the measured quantity is therefore
        the first time a sole, undisputed leader emerges from the
        bullets-and-shields war, mirroring the Fischer-Jiang criterion.
        """
        leaders = [state for state in states if state.leader == 1]
        if len(leaders) != 1:
            return False
        if leaders[0].shield == 1:
            return True
        return all(state.bullet != BULLET_LIVE for state in states)


def _peaceful(states: Sequence[AngluinState], agent: int) -> bool:
    """Peacefulness of a live bullet (Section 4.1 predicate, label-agnostic)."""
    n = len(states)
    for hops in range(n):
        candidate = states[(agent - hops) % n]
        if candidate.leader == 1:
            if candidate.shield != 1:
                return False
            return all(states[(agent - h) % n].signal_b == 0 for h in range(hops + 1))
    return False
