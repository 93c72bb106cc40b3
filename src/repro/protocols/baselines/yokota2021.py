"""Baseline [28]: Yokota, Sudo, Masuzawa 2021 — time-optimal SS-LE with ``O(n)`` states.

Given an upper bound ``N = n + O(n)`` on the ring size (equivalently the
knowledge ``psi = ceil(log2 n) + O(1)``, with ``N = 2**psi``), each agent
tracks its *exact* distance to the nearest left leader:

* a leader has ``dist = 0``;
* a follower adopts ``min(l.dist + 1, N)`` on every interaction with its left
  neighbor;
* a follower whose recomputed distance reaches ``N`` concludes that no leader
  exists within ``N >= n`` hops to its left — i.e. no leader exists at all —
  and becomes a leader.

Leader elimination is the bullets-and-shields war of Algorithm 5 (the target
paper reuses it verbatim from this protocol), shared via
:func:`repro.protocols.ppl.eliminate_leaders.eliminate_leaders`, a pure
function of the ``leader`` / ``bullet`` / ``shield`` / ``signal_b`` fields.

The paper reports ``Theta(n^2)`` expected steps and ``O(n)`` states for this
protocol; it is the main head-to-head comparison for ``P_PL`` in Table 1
(``P_PL`` trades a ``log n`` factor of time for exponentially fewer states).
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
class YokotaState:
    """Per-agent state: leader flag, exact distance, and the war variables."""

    __slots__ = ("leader", "dist", "bullet", "shield", "signal_b")

    leader: int
    dist: int
    bullet: int
    shield: int
    signal_b: int

    @classmethod
    def follower(cls, dist: int = 0) -> "YokotaState":
        """A quiescent follower at the given distance."""
        return cls(leader=0, dist=dist, bullet=0, shield=0, signal_b=0)

    @classmethod
    def fresh_leader(cls) -> "YokotaState":
        """A leader exactly as created by the detection rule (armed and shielded)."""
        return cls(leader=1, dist=0, bullet=BULLET_LIVE, shield=1, signal_b=0)

    def copy(self) -> "YokotaState":
        return YokotaState(self.leader, self.dist, self.bullet, self.shield, self.signal_b)

    def become_leader(self) -> None:
        """Leader creation: fire a live bullet and raise the shield (as in ``P_PL``)."""
        self.leader = 1
        self.dist = 0
        self.bullet = BULLET_LIVE
        self.shield = 1
        self.signal_b = 0


class Yokota2021Protocol(LeaderElectionProtocol[YokotaState]):
    """The ``O(n)``-state, ``Theta(n^2)``-step SS-LE baseline of [28]."""

    def __init__(self, distance_bound: int) -> None:
        if distance_bound < 2:
            raise InvalidParameterError(
                f"the distance bound N must be >= 2, got {distance_bound}"
            )
        self._bound = distance_bound
        self.name = f"Yokota2021(N={distance_bound})"

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #
    @property
    def distance_bound(self) -> int:
        """The knowledge ``N``: an upper bound on the ring size."""
        return self._bound

    def transition(self, initiator: YokotaState, responder: YokotaState
                   ) -> Tuple[YokotaState, YokotaState]:
        left = initiator.copy()
        right = responder.copy()
        # Distance maintenance and leader-absence detection.
        if right.leader == 1:
            right.dist = 0
        else:
            recomputed = min(left.dist + 1, self._bound)
            if recomputed >= self._bound:
                right.become_leader()
            else:
                right.dist = recomputed
        # Leader elimination: identical bullets-and-shields war as P_PL.
        (left.bullet, left.shield, left.signal_b,
         right.leader, right.bullet, right.shield, right.signal_b) = eliminate_leaders(
            left.leader, left.bullet, left.shield, left.signal_b,
            right.leader, right.bullet, right.shield, right.signal_b)
        return left, right

    def leader_flag(self, state: YokotaState) -> bool:
        return state.leader == 1

    def random_state(self, rng: RandomSource) -> YokotaState:
        return YokotaState(
            leader=rng.randint(0, 1),
            dist=rng.randrange(self._bound),
            bullet=rng.randint(0, 2),
            shield=rng.randint(0, 1),
            signal_b=rng.randint(0, 1),
        )

    def validate(self, state: YokotaState) -> None:
        if state.leader not in (0, 1):
            raise InvalidStateError(f"leader must be 0/1, got {state.leader!r}")
        require_in_range("dist", state.dist, 0, self._bound)
        require_in_range("bullet", state.bullet, 0, 2)
        require_in_range("shield", state.shield, 0, 1)
        require_in_range("signal_b", state.signal_b, 0, 1)

    def state_space_size(self) -> int:
        """``2 * (N + 1) * 3 * 2 * 2 = O(N) = O(n)`` states per agent."""
        return 2 * (self._bound + 1) * 3 * 2 * 2

    def canonical_states(self) -> Iterable[YokotaState]:
        yield YokotaState.fresh_leader()
        yield YokotaState.follower(dist=1)

    # ------------------------------------------------------------------ #
    # Convergence criterion and convenience constructors
    # ------------------------------------------------------------------ #
    @guarded(one_leader)
    def is_stable(self, states: Sequence[YokotaState]) -> bool:
        """Practical safe-configuration test: one leader, exact distances, no threats.

        Mirrors the structure of ``S_PL``: exactly one leader, every
        follower's ``dist`` equals its true distance to the leader (so the
        detection rule can never fire again), and every live bullet is
        *peaceful* in the sense of Section 4.1 (nearest left leader shielded,
        no bullet-absence signal in between), so the unique leader can never
        be killed.
        """
        n = len(states)
        leaders = [i for i, state in enumerate(states) if state.leader == 1]
        if len(leaders) != 1:
            return False
        leader = leaders[0]
        for offset in range(n):
            state = states[(leader + offset) % n]
            if state.dist != (0 if offset == 0 else min(offset, self._bound - 1)):
                return False
        for agent, state in enumerate(states):
            if state.bullet == BULLET_LIVE and not _peaceful(states, agent):
                return False
        return True

    @classmethod
    def for_population(cls, n: int, slack: int = 0) -> "Yokota2021Protocol":
        """Instance whose bound ``N = 2**(ceil(log2 n) + slack)`` covers ``n`` agents."""
        if n < 2:
            raise InvalidParameterError(f"population size must be >= 2, got {n}")
        import math

        psi = max(2, math.ceil(math.log2(n)) + slack)
        return cls(distance_bound=2 ** psi)


def _peaceful(states: Sequence[YokotaState], agent: int) -> bool:
    """Peacefulness of a live bullet (same predicate as Section 4.1)."""
    n = len(states)
    for hops in range(n):
        candidate = states[(agent - hops) % n]
        if candidate.leader == 1:
            if candidate.shield != 1:
                return False
            return all(states[(agent - h) % n].signal_b == 0 for h in range(hops + 1))
    return False


def adversarial_configuration(protocol: Yokota2021Protocol, n: int,
                              rng: "RandomSource | int | None" = None):
    """Uniformly random initial configuration for the [28] baseline."""
    from repro.core.configuration import Configuration
    from repro.core.rng import ensure_source

    source = ensure_source(rng)
    return Configuration([protocol.random_state(source) for _ in range(n)])
