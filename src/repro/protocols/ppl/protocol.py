"""The protocol ``P_PL`` (Algorithm 1): ``CreateLeader()`` then ``EliminateLeaders()``.

``P_PL`` is the paper's main contribution: a self-stabilizing leader-election
protocol for directed rings that, given ``psi = ceil(log2 n) + O(1)``, reaches
a safe configuration within ``O(n^2 log n)`` steps w.h.p. and in expectation
(Theorem 3.1) using only ``polylog(n)`` states per agent.

Algorithm 1 is written once, as three stages over the components of a
state (:mod:`repro.protocols.ppl.stages`): ``transition`` composes them for
the step loop and the model checker, and :meth:`PPLProtocol.coded_table`
gives the table engine a :class:`~repro.protocols.ppl.stages.StageTable`
that memoizes each stage on its own.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.core.fast_simulator import guarded
from repro.core.protocol import LeaderElectionProtocol
from repro.core.rng import RandomSource
from repro.protocols.ppl.determine_mode import determine_mode
from repro.protocols.ppl.params import PPLParams
from repro.protocols.ppl.safety import is_safe
from repro.protocols.ppl.stages import StageTable, segment_stage, war_stage
from repro.protocols.ppl.state import PPLState, random_state, validate_state

#: Builds a state from a tuple of its 13 field values; it skips the
#: Python-level ``__new__`` a named tuple's constructor runs.
_new_state = tuple.__new__


class PPLProtocol(LeaderElectionProtocol[PPLState]):
    """The paper's protocol ``P_PL`` parameterised by :class:`PPLParams`."""

    def __init__(self, params: PPLParams) -> None:
        self._params = params
        self._psi = params.psi
        self._kappa_max = params.kappa_max
        self._dist_modulus = params.dist_modulus
        self.name = f"P_PL(psi={params.psi}, kappa_max={params.kappa_max})"

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> PPLParams:
        """The parameter bundle (``psi``, ``kappa_max`` …) of this instance."""
        return self._params

    def transition(self, initiator: PPLState, responder: PPLState) -> Tuple[PPLState, PPLState]:
        """Algorithm 1: ``CreateLeader()`` then ``EliminateLeaders()``.

        Each state is unpacked once, and the three stages of
        :mod:`repro.protocols.ppl.stages` run in the paper's order on the
        field values: Algorithm 2 line 3 (Algorithm 4) on the timers, lines
        4-9 and lines 10 and 11 on the segment fields, then leader creation
        and Algorithm 5 on the war fields.  :class:`StageTable` memoizes the
        same three functions, so this is the table engine's reference too.
        """
        (l_leader, l_b, l_dist, l_last, l_token_b, l_token_w, l_mode, l_clock,
         l_hits, l_signal_r, l_bullet, l_shield, l_signal_b) = initiator
        (r_leader, r_b, r_dist, r_last, r_token_b, r_token_w, r_mode, r_clock,
         r_hits, r_signal_r, r_bullet, r_shield, r_signal_b) = responder
        psi = self._psi
        (l_hits, l_clock, l_signal_r, l_mode,
         r_hits, r_clock, r_signal_r, r_mode) = determine_mode(
            l_leader, l_clock, l_signal_r, r_clock, r_hits, r_signal_r,
            psi, self._kappa_max)
        (l_last, l_token_b, l_token_w, r_b, r_dist, r_token_b, r_token_w,
         created) = segment_stage(
            l_b, l_dist, l_last, l_token_b, l_token_w,
            r_leader, r_b, r_dist, r_last, r_token_b, r_token_w, r_mode,
            psi, self._dist_modulus)
        (l_bullet, l_shield, l_signal_b,
         r_leader, r_bullet, r_shield, r_signal_b) = war_stage(
            l_leader, l_bullet, l_shield, l_signal_b,
            r_leader, r_bullet, r_shield, r_signal_b, created)
        return (
            _new_state(PPLState, (l_leader, l_b, l_dist, l_last, l_token_b, l_token_w,
                                  l_mode, l_clock, l_hits, l_signal_r, l_bullet,
                                  l_shield, l_signal_b)),
            _new_state(PPLState, (r_leader, r_b, r_dist, r_last, r_token_b, r_token_w,
                                  r_mode, r_clock, r_hits, r_signal_r, r_bullet,
                                  r_shield, r_signal_b)),
        )

    def coded_table(self) -> StageTable:
        """The table engine's coded table for this protocol: three stage
        tables over component codes instead of one over whole states."""
        return StageTable(self._params)

    def leader_flag(self, state: PPLState) -> bool:
        return state.leader == 1

    def random_state(self, rng: RandomSource) -> PPLState:
        return random_state(rng, self._params)

    def validate(self, state: PPLState) -> None:
        validate_state(state, self._params)

    def state_space_size(self) -> int:
        return self._params.state_space_size()

    def canonical_states(self) -> Iterable[PPLState]:
        yield PPLState.fresh_leader()
        yield PPLState.follower(dist=1)

    # ------------------------------------------------------------------ #
    # Convergence criterion and convenience constructors
    # ------------------------------------------------------------------ #
    @guarded(StageTable.may_be_safe)
    def is_stable(self, states: Sequence[PPLState]) -> bool:
        """The stop predicate of every ``P_PL`` run: ``states`` form a safe
        configuration (``S_PL``, :func:`~repro.protocols.ppl.safety.is_safe`).

        On the table engine it runs only where its guard,
        :meth:`StageTable.may_be_safe`, holds on the codes.
        """
        return is_safe(states, self._params)

    @classmethod
    def for_population(cls, n: int, slack: int = 0, kappa_factor: int = 32) -> "PPLProtocol":
        """Instance whose knowledge ``psi`` matches a ring of ``n`` agents."""
        return cls(PPLParams.for_population(n, slack=slack, kappa_factor=kappa_factor))
