"""Baseline [15]: Fischer & Jiang 2006 — SS-LE on rings with the oracle ``Omega?``.

``Omega?`` is an eventual leader detector: it eventually informs every agent
whether at least one leader exists.  Fischer and Jiang showed that with this
oracle SS-LE on rings is solvable with a constant number of states; the
target paper cites its convergence as ``Theta(n^3)`` expected steps when the
oracle reports instantaneously.

Substitution (see DESIGN.md): an oracle is an abstraction outside the pure
population-protocol model, so it cannot live inside the pairwise transition
function.  We reproduce it as :class:`OracleOmega`, a simulation-level
component that periodically inspects the global configuration and, when no
leader exists, raises an ``absence`` flag at every agent (optionally after a
configurable delay to model the "eventually" in the oracle's guarantee).
Both engines consult it every ``report_interval`` steps when built with
``oracle=`` (the ``fischer-jiang`` spec passes one with
``report_interval = n``): the step loop after the step, the table engine
between blocks that end there.

The agent-level protocol is the classic bullets-and-shields war *without* the
bullet-absence signal of [28] (that refinement is exactly what [28] adds to
reach ``Theta(n^2)``): a leader fires a new bullet whenever it is the
initiator and carries none, choosing live+shield or dummy+unshield with the
scheduler's coin; a live bullet kills an unshielded leader.  An agent whose
oracle flag is raised becomes a leader at its next interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, MutableSequence, Sequence, Tuple

from repro.core.errors import InvalidParameterError, InvalidStateError
from repro.core.fast_simulator import guarded, one_leader
from repro.core.protocol import LeaderElectionProtocol, require_in_range
from repro.core.rng import RandomSource
from repro.protocols.ppl.state import BULLET_DUMMY, BULLET_LIVE, BULLET_NONE


@dataclass(eq=True)
class FischerJiangState:
    """Per-agent state: leader flag, bullet, shield, and the oracle's absence flag."""

    __slots__ = ("leader", "bullet", "shield", "absence")

    leader: int
    bullet: int
    shield: int
    #: Raised by the oracle when it currently believes no leader exists.
    absence: int

    @classmethod
    def follower(cls) -> "FischerJiangState":
        return cls(leader=0, bullet=BULLET_NONE, shield=0, absence=0)

    @classmethod
    def fresh_leader(cls) -> "FischerJiangState":
        return cls(leader=1, bullet=BULLET_LIVE, shield=1, absence=0)

    def copy(self) -> "FischerJiangState":
        return FischerJiangState(self.leader, self.bullet, self.shield, self.absence)


class FischerJiangProtocol(LeaderElectionProtocol[FischerJiangState]):
    """Constant-state SS-LE for rings assuming the oracle ``Omega?``."""

    name = "FischerJiang(oracle)"

    def transition(self, initiator: FischerJiangState, responder: FischerJiangState
                   ) -> Tuple[FischerJiangState, FischerJiangState]:
        left = initiator.copy()
        right = responder.copy()

        # Oracle-triggered leader creation: an agent told that no leader
        # exists becomes one (and lowers the flag).
        for agent in (left, right):
            if agent.absence == 1:
                agent.leader = 1
                agent.bullet = BULLET_LIVE
                agent.shield = 1
                agent.absence = 0

        # A leader acting as the initiator with no bullet in hand fires one.
        # The role it plays in this very interaction is the scheduler's fair
        # coin: initiator -> live bullet + shield (the same convention P_PL
        # uses), and the complementary dummy/unshield choice is made when the
        # leader happens to be the responder.
        if left.leader == 1 and left.bullet == BULLET_NONE:
            left.bullet = BULLET_LIVE
            left.shield = 1
        if right.leader == 1 and right.bullet == BULLET_NONE:
            right.bullet = BULLET_DUMMY
            right.shield = 0

        # Bullet propagation left-to-right, killing unshielded leaders.
        if left.bullet > BULLET_NONE:
            if right.leader == 1:
                if left.bullet == BULLET_LIVE and right.shield == 0:
                    right.leader = 0
                left.bullet = BULLET_NONE
            else:
                if right.bullet == BULLET_NONE:
                    right.bullet = left.bullet
                left.bullet = BULLET_NONE
        return left, right

    def leader_flag(self, state: FischerJiangState) -> bool:
        return state.leader == 1

    def random_state(self, rng: RandomSource) -> FischerJiangState:
        return FischerJiangState(
            leader=rng.randint(0, 1),
            bullet=rng.randint(0, 2),
            shield=rng.randint(0, 1),
            absence=0,
        )

    def validate(self, state: FischerJiangState) -> None:
        if state.leader not in (0, 1):
            raise InvalidStateError(f"leader must be 0/1, got {state.leader!r}")
        require_in_range("bullet", state.bullet, 0, 2)
        require_in_range("shield", state.shield, 0, 1)
        require_in_range("absence", state.absence, 0, 1)

    def state_space_size(self) -> int:
        """``2 * 3 * 2 * 2 = 24`` states: constant, as in the original paper."""
        return 2 * 3 * 2 * 2

    def canonical_states(self) -> Iterable[FischerJiangState]:
        yield FischerJiangState.fresh_leader()
        yield FischerJiangState.follower()

    @guarded(one_leader)
    def is_stable(self, states: Sequence[FischerJiangState]) -> bool:
        """One leader and no live threat to it (the oracle being quiet is implied)."""
        leaders = [i for i, state in enumerate(states) if state.leader == 1]
        if len(leaders) != 1:
            return False
        leader = leaders[0]
        if states[leader].shield != 1:
            # An unshielded unique leader could still be killed by a live
            # bullet in flight; require the shield for a conservative
            # "definitely safe" verdict.
            return all(state.bullet != BULLET_LIVE for state in states)
        return True


class OracleOmega:
    """Simulation-level model of the eventual leader detector ``Omega?``.

    Every ``report_interval`` steps the oracle inspects the configuration; if
    it has seen no leader for ``patience`` consecutive inspections it raises
    the ``absence`` flag of every agent.  ``patience = 0`` models the
    instantaneous oracle under which the paper quotes the ``Theta(n^3)``
    bound.
    """

    def __init__(self, report_interval: int = 1, patience: int = 0) -> None:
        if report_interval < 1:
            raise InvalidParameterError(
                f"report_interval must be >= 1, got {report_interval}"
            )
        if patience < 0:
            raise InvalidParameterError(f"patience must be >= 0, got {patience}")
        self.report_interval = report_interval
        self.patience = patience
        self._consecutive_absent = 0

    def observe_and_report(self, states: MutableSequence[FischerJiangState]) -> bool:
        """Inspect the configuration; raise the flags if absence is confirmed.

        Raising writes flagged copies into ``states``: the state objects
        themselves may be shared with earlier snapshots or the caller's
        initial configuration, so they are never mutated.  Returns True when
        the flags were raised.
        """
        if any(state.leader == 1 for state in states):
            self._consecutive_absent = 0
            return False
        self._consecutive_absent += 1
        if self._consecutive_absent <= self.patience:
            return False
        for agent, state in enumerate(states):
            flagged = state.copy()
            flagged.absence = 1
            states[agent] = flagged
        return True
