"""Safe configurations of ``P_PL`` (Section 4.1).

The paper defines a chain of configuration sets

``S_PL  ⊂  C_DL  ⊂  C_PB ∩ L_1  ⊂  C_PB  ⊆  C_NZ  ⊂  L_≥1``

* ``L_≥1`` / ``L_0`` / ``L_1``: at least one / no / exactly one leader.
* ``C_PB``: every *live bullet* is *peaceful* — its nearest left leader is
  shielded and no bullet-absence signal sits between them — so the last
  leader can never be killed (Lemmas 4.1/4.2).
* ``C_DL``: additionally there is exactly one leader ``u_k`` and ``dist`` /
  ``last`` are exactly right relative to it.
* ``S_PL``: additionally the configuration is perfect and every token is
  valid and *correct* (Definition 4.3) — from here nobody ever changes ``b``,
  creates a leader, or kills the leader: the configuration is safe
  (Lemma 4.7).

This module implements membership tests for all of these sets.  They serve
two purposes: they are the convergence criteria of the experiments (time to
reach ``S_PL``), and they back the closure property tests.

Fidelity note (Definition 4.3): the paper states ``token[3] = 1  iff  x <= j``.
The protocol's own dynamics (token creation at line 13 and the turnaround at
line 27) maintain ``token[3] = carry *out* of position x``, i.e.
``token[3] = 1 iff x < j``, while ``token[2]`` is the incremented bit
``b_x xor carry_in(x)`` with ``carry_in(x) = 1 iff x <= j`` — under either
reading ``token[2]`` agrees with Lemma 4.4.  We implement the dynamics-
consistent version so that freshly created tokens are correct and closure
holds, and record the off-by-one here and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.protocols.ppl.move_token import BLACK, WHITE, is_invalid_token, token_offset
from repro.protocols.ppl.params import PPLParams, expected_segment_count
from repro.protocols.ppl.perfection import is_perfect
from repro.protocols.ppl.state import BULLET_LIVE, PPLState


# ---------------------------------------------------------------------- #
# Leaders and bullets (C_PB)
# ---------------------------------------------------------------------- #
def leader_count(states: Sequence[PPLState]) -> int:
    """Number of leaders in the configuration."""
    return sum(1 for state in states if state.leader == 1)


def distance_to_left_leader(states: Sequence[PPLState], agent: int) -> Optional[int]:
    """``d_LL(agent)``: hops to the nearest leader counter-clockwise, ``None`` if none."""
    n = len(states)
    for hops in range(n):
        if states[(agent - hops) % n].leader == 1:
            return hops
    return None


def distance_to_right_leader(states: Sequence[PPLState], agent: int) -> Optional[int]:
    """``d_RL(agent)``: hops to the nearest leader clockwise, ``None`` if none."""
    n = len(states)
    for hops in range(n):
        if states[(agent + hops) % n].leader == 1:
            return hops
    return None


def is_peaceful_bullet(states: Sequence[PPLState], agent: int) -> bool:
    """The ``Peaceful(i)`` predicate for a live bullet located at ``agent``.

    Peaceful: the nearest left leader exists, is shielded, and no agent
    between that leader and the bullet (inclusive) carries a bullet-absence
    signal.  A peaceful live bullet can never kill the last leader.
    """
    n = len(states)
    d_ll = distance_to_left_leader(states, agent)
    if d_ll is None:
        return False
    if states[(agent - d_ll) % n].shield != 1:
        return False
    for hop in range(d_ll + 1):
        if states[(agent - hop) % n].signal_b != 0:
            return False
    return True


def in_cpb(states: Sequence[PPLState]) -> bool:
    """Membership in ``C_PB``: at least one leader and every live bullet is peaceful."""
    if leader_count(states) < 1:
        return False
    for agent, state in enumerate(states):
        if state.bullet == BULLET_LIVE and not is_peaceful_bullet(states, agent):
            return False
    return True


def in_c_no_live_bullet(states: Sequence[PPLState]) -> bool:
    """Membership in ``C_NoLB``: no live bullet anywhere (Lemma 4.8)."""
    return all(state.bullet != BULLET_LIVE for state in states)


def in_c_no_bullet_absence_signal(states: Sequence[PPLState]) -> bool:
    """Membership in ``C_NoBAS``: no bullet-absence signal anywhere (Lemma 4.8)."""
    return all(state.signal_b == 0 for state in states)


# ---------------------------------------------------------------------- #
# C_DL: the unique leader with exact dist / last values
# ---------------------------------------------------------------------- #
def unique_leader_index(states: Sequence[PPLState]) -> Optional[int]:
    """Index of the unique leader, or ``None`` when there is not exactly one."""
    leaders = [i for i, state in enumerate(states) if state.leader == 1]
    if len(leaders) != 1:
        return None
    return leaders[0]


def in_cdl(states: Sequence[PPLState], params: PPLParams) -> bool:
    """Membership in ``C_DL`` (Section 4.1).

    Relative to the unique leader ``u_k``: ``u_{k+i}.dist = i mod 2*psi`` and
    ``last = 1`` exactly for the agents of the last segment
    ``i in [psi*(zeta-1), n-1]`` — plus the ``C_PB`` bullet condition.
    """
    if not in_cpb(states):
        return False
    leader = unique_leader_index(states)
    if leader is None:
        return False
    n = len(states)
    zeta = expected_segment_count(n, params.psi)
    modulus = params.dist_modulus
    last_segment_start = params.psi * (zeta - 1)
    for offset in range(n):
        state = states[(leader + offset) % n]
        if state.dist != offset % modulus:
            return False
        expected_last = 1 if offset >= last_segment_start else 0
        if state.last != expected_last:
            return False
    return True


# ---------------------------------------------------------------------- #
# Token validity and correctness (Definitions 3.3 and 4.3)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TokenView:
    """One token together with the geometry needed to judge its correctness."""

    #: Which variable the token lives in: "B" or "W".
    color: str
    #: Agent index (relative to the leader at offset 0) holding the token.
    holder: int
    #: The raw token triple ``(pos, value, carry)``.
    token: tuple
    #: Offset (relative to the leader) of the start of the token's 2-segment window.
    window_start: int
    #: Segment rank ``i`` such that the token works for ``(S_i, S_{i+1})``.
    segment_rank: int
    #: Round ``x`` of the token (Definition 4.3), or ``None`` when off-trajectory.
    round_index: Optional[int]


def _normalised_states(states: Sequence[PPLState], leader: int) -> List[PPLState]:
    """States re-indexed so the unique leader sits at offset 0 (paper's convention)."""
    n = len(states)
    return [states[(leader + offset) % n] for offset in range(n)]


def token_views(states: Sequence[PPLState], params: PPLParams) -> List[TokenView]:
    """Enumerate every token in a ``C_DL`` configuration with its geometry.

    Assumes ``dist`` is exact (as in ``C_DL``); the window of a token held at
    offset ``k`` starts at the closest black (respectively white) border at or
    before ``k``.
    """
    leader = unique_leader_index(states)
    if leader is None:
        raise ValueError("token_views requires a configuration with exactly one leader")
    n = len(states)
    ordered = _normalised_states(states, leader)
    views: List[TokenView] = []
    psi = params.psi
    modulus = params.dist_modulus
    for offset in range(n):
        state = ordered[offset]
        for color in (BLACK, WHITE):
            token = state.token(color)
            if token is None:
                continue
            anchor = token_offset(color, params)
            window_start = offset - ((offset - anchor) % modulus)
            segment_rank = window_start // psi if window_start >= 0 else -1
            target = offset + token[0]
            round_index: Optional[int]
            if token[0] > 0:
                round_index = target - window_start - psi
            else:
                round_index = target - window_start - 1
            if round_index is not None and not 0 <= round_index < psi:
                round_index = None
            views.append(
                TokenView(
                    color=color,
                    holder=offset,
                    token=token,
                    window_start=window_start,
                    segment_rank=segment_rank,
                    round_index=round_index,
                )
            )
    return views


def is_correct_token(view: TokenView, states: Sequence[PPLState],
                     params: PPLParams) -> bool:
    """Definition 4.3 (dynamics-consistent version, see module docstring).

    ``states`` must already be normalised so the leader sits at offset 0; use
    :func:`token_views` + :func:`all_tokens_valid_and_correct` rather than
    calling this directly.
    """
    if view.round_index is None:
        return False
    if view.window_start < 0:
        return False
    psi = params.psi
    first_segment = range(view.window_start, view.window_start + psi)
    if first_segment[-1] >= len(states):
        return False
    bits = [states[index].b for index in first_segment]
    try:
        first_zero = bits.index(0)
    except ValueError:
        first_zero = psi
    x = view.round_index
    carry_in = 1 if x <= first_zero else 0
    carry_out = 1 if x < first_zero else 0
    expected_value = bits[x] ^ carry_in
    _, value_bit, carry_bit = view.token
    return value_bit == expected_value and carry_bit == carry_out


def all_tokens_valid_and_correct(states: Sequence[PPLState], params: PPLParams) -> bool:
    """True when every token is valid (Def. 3.3) and correct (Def. 4.3).

    Tokens must additionally sit inside a window ``(S_i, S_{i+1})`` with
    ``i <= zeta - 2`` — every token the protocol can actually generate does;
    adversarial tokens outside such a window simply exclude the configuration
    from (our conservative rendition of) ``S_PL``.
    """
    leader = unique_leader_index(states)
    if leader is None:
        return False
    ordered = _normalised_states(states, leader)
    zeta = expected_segment_count(len(states), params.psi)
    for view in token_views(states, params):
        holder_state = ordered[view.holder]
        if is_invalid_token(holder_state.dist, view.token,
                            token_offset(view.color, params), params.psi,
                            params.dist_modulus):
            return False
        if view.window_start < 0 or view.segment_rank > zeta - 2:
            return False
        if not is_correct_token(view, ordered, params):
            return False
    return True


# ---------------------------------------------------------------------- #
# S_PL: safe configurations (Definition 4.6, Lemma 4.7)
# ---------------------------------------------------------------------- #
def segment_ids_consistent(states: Sequence[PPLState], params: PPLParams) -> bool:
    """``iota(S_{i+1}) = iota(S_i) + 1 (mod 2**psi)`` for all ``i in [0, zeta-3]``.

    Evaluated relative to the unique leader at offset 0, on the canonical
    segments ``S_i = u_{i*psi} .. u_{i*psi + psi - 1}``.
    """
    leader = unique_leader_index(states)
    if leader is None:
        return False
    n = len(states)
    ordered = _normalised_states(states, leader)
    psi = params.psi
    zeta = expected_segment_count(n, psi)
    modulus = params.segment_id_modulus

    def canonical_segment_id(rank: int) -> int:
        value = 0
        for position in range(psi):
            value += ordered[rank * psi + position].b << position
        return value

    for rank in range(0, zeta - 2):
        if canonical_segment_id(rank + 1) != (canonical_segment_id(rank) + 1) % modulus:
            return False
    return True


def in_spl(states: Sequence[PPLState], params: PPLParams) -> bool:
    """Membership in ``S_PL``: the safe configurations of Definition 4.6."""
    if not in_cdl(states, params):
        return False
    if not segment_ids_consistent(states, params):
        return False
    if not all_tokens_valid_and_correct(states, params):
        return False
    return True


def is_safe(states: Sequence[PPLState], params: PPLParams) -> bool:
    """Alias of :func:`in_spl`, the convergence criterion used by experiments."""
    return in_spl(states, params)


def summary(states: Sequence[PPLState], params: PPLParams) -> dict:
    """Diagnostic membership summary of the configuration (used by examples)."""
    return {
        "leaders": leader_count(states),
        "perfect": is_perfect(states, params),
        "in_CPB": in_cpb(states),
        "in_CDL": in_cdl(states, params),
        "in_SPL": in_spl(states, params),
        "no_live_bullet": in_c_no_live_bullet(states),
        "no_bullet_absence_signal": in_c_no_bullet_absence_signal(states),
    }
