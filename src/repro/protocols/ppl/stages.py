"""Algorithm 1 as three stages over the components of a state, and ``P_PL``'s
coded table.

A ``P_PL`` state is the union of three components, each written by one stage
of Algorithm 1 (DESIGN.md §1.5), in this order:

==========  ======================================  ==========================================
component   fields                                  stage
==========  ======================================  ==========================================
timers      ``mode, clock, hits, signal_r``         Algorithm 2 line 3, which is Algorithm 4:
                                                    :func:`~repro.protocols.ppl.determine_mode.determine_mode`
segment     ``b, dist, last, token_b, token_w``     Algorithm 2 lines 4-9, then Algorithm 3:
                                                    :func:`segment_stage`
war         ``leader, bullet, shield, signal_b``    leader creation, then Algorithm 5:
                                                    :func:`war_stage`
==========  ======================================  ==========================================

Like the algorithms' functions, the stages take and return field values.
:meth:`PPLProtocol.transition <repro.protocols.ppl.protocol.PPLProtocol.transition>`
is their composition, and :class:`StageTable` memoizes each stage on its
own, so the table engine runs ``P_PL`` as a product of three small tables
instead of one table over 13-field states, which Algorithm 4's timers keep
filling with new states.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.errors import StateSpaceError
from repro.protocols.ppl.create_leader import create_leader
from repro.protocols.ppl.determine_mode import determine_mode
from repro.protocols.ppl.eliminate_leaders import eliminate_leaders
from repro.protocols.ppl.move_token import move_token
from repro.protocols.ppl.params import (
    MODE_CONSTRUCT,
    MODE_DETECT,
    PPLParams,
    expected_segment_count,
)
from repro.protocols.ppl.state import BULLET_LIVE, PPLState, Token

#: A state's component values, in ``PPLState`` field order.
_timers_of = itemgetter(6, 7, 8, 9)
_segment_of = itemgetter(1, 2, 3, 4, 5)
_war_of = itemgetter(0, 10, 11, 12)

#: Memory bound of each stage table: a table holding this many entries is
#: emptied before its next entry.  Read when a table is constructed.
MAX_STAGE_ENTRIES = 4096

#: Builds a state from a tuple of its 13 field values; it skips the
#: Python-level ``__new__`` a named tuple's constructor runs.
_new_state = tuple.__new__


def segment_stage(l_b: int, l_dist: int, l_last: int, l_token_b: Token, l_token_w: Token,
                  r_leader: int, r_b: int, r_dist: int, r_last: int, r_token_b: Token,
                  r_token_w: Token, r_mode: str, psi: int, dist_modulus: int
                  ) -> Tuple[int, Token, Token, int, int, Token, Token, bool]:
    """Algorithm 2 lines 4-9, then Algorithm 3 with ``d = 0`` and ``d = psi``.

    Takes the initiator's segment fields, and the responder's leader flag,
    segment fields and mode as Algorithm 4 wrote it.  Returns the fields the
    lines write, ``(l_last, l_token_b, l_token_w, r_b, r_dist, r_token_b,
    r_token_w, created)``: ``created`` is True when one of the three lines
    that create a leader (Algorithm 2 line 6, Algorithm 3 line 18 for each
    color) fired, which :func:`war_stage` applies.
    """
    l_last, r_dist, created = create_leader(
        l_dist, r_leader, r_dist, r_last, r_mode, psi, dist_modulus)
    l_token_b, r_token_b, r_b, created_b = move_token(
        l_dist, l_b, l_last, l_token_b, r_dist, r_b, r_last, r_mode, r_token_b,
        0, psi, dist_modulus)
    l_token_w, r_token_w, r_b, created_w = move_token(
        l_dist, l_b, l_last, l_token_w, r_dist, r_b, r_last, r_mode, r_token_w,
        psi, psi, dist_modulus)
    return (l_last, l_token_b, l_token_w, r_b, r_dist, r_token_b, r_token_w,
            created or created_b or created_w)


def war_stage(l_leader: int, l_bullet: int, l_shield: int, l_signal_b: int,
              r_leader: int, r_bullet: int, r_shield: int, r_signal_b: int,
              created: bool) -> Tuple[int, int, int, int, int, int, int]:
    """The leader-creation assignment, then Algorithm 5.

    ``created`` is what :func:`segment_stage` returned: the new leader fires
    a live bullet, raises its shield and clears the bullet-absence signal
    (Algorithm 2 line 6, Algorithm 3 line 18).  Returns the fields
    Algorithm 5 writes, ``(l_bullet, l_shield, l_signal_b, r_leader,
    r_bullet, r_shield, r_signal_b)``.
    """
    if created:
        r_leader, r_bullet, r_shield, r_signal_b = 1, BULLET_LIVE, 1, 0
    return eliminate_leaders(l_leader, l_bullet, l_shield, l_signal_b,
                             r_leader, r_bullet, r_shield, r_signal_b)


class _Codebook:
    """Integer codes of one component's values, in order of first sight.

    Codes are never renumbered.  The stride is the component's domain size,
    so a code at or past it means a value outside the domain, and it raises
    instead of colliding with another key of the stage tables.
    """

    def __init__(self, name: str, stride: int) -> None:
        self.name = name
        self.stride = stride
        self.values: List[tuple] = []
        self._index: Dict[Hashable, int] = {}

    def code(self, value: tuple) -> int:
        code = self._index.get(value)
        if code is None:
            code = len(self.values)
            if code >= self.stride:
                raise StateSpaceError(
                    f"{self.name} component {value!r} would get code {code}, "
                    f"past the domain's {self.stride} values"
                )
            self._index[value] = code
            self.values.append(value)
        return code


class StageTable:
    """``P_PL``'s coded table: three stage tables over component codes.

    Each agent is held as three codes — timers, segment and war — and one
    interaction is three int-keyed lookups, each filled on a miss by one
    stage:

    * timers, keyed by ``(l.leader, l.timers, r.timers)``, give both new
      timer codes and whether the responder is now detecting;
    * segments, keyed by ``(l.segment, r.segment, r.leader, r.mode)``, give
      both new segment codes and whether a leader was created;
    * war, keyed by ``(l.war, r.war, created)``, gives both new war codes,
      the responder's leader flag included.

    A step is effective exactly when one of the six codes changed, and the
    leader count moves only by the responder's flag (Algorithm 1 never
    changes the initiator's).  Every stage table is emptied once it holds
    :data:`MAX_STAGE_ENTRIES` entries; the codebooks are bounded by the
    domains.  The tables memoize pure functions, so neither bound can
    change a result.

    Implements the engine's coded-table interface
    (:class:`~repro.core.fast_simulator.CodedTable`), and
    :meth:`may_be_safe`, the guard of ``P_PL``'s stop predicate.
    """

    def __init__(self, params: PPLParams) -> None:
        self._psi = params.psi
        self._kappa_max = params.kappa_max
        self._dist_modulus = params.dist_modulus
        self._segment_id_modulus = params.segment_id_modulus
        self._timer_codes = _Codebook("timers", params.timer_domain_size())
        self._segment_codes = _Codebook("segment", params.segment_domain_size())
        self._war_codes = _Codebook("war", params.war_domain_size())
        # War code -> its leader flag, and the war fields before and after
        # a state's segment and timer fields (for decoding).
        self._leader_of: List[int] = []
        self._war_heads: List[tuple] = []
        self._war_tails: List[tuple] = []
        self._timer_table: Dict[int, Tuple[int, int, int]] = {}
        self._segment_table: Dict[int, Tuple[int, int, int]] = {}
        self._war_table: Dict[int, Tuple[int, int]] = {}
        self._max_entries = MAX_STAGE_ENTRIES
        # Agent -> its timer, segment and war code.
        self._timers: List[int] = []
        self._segments: List[int] = []
        self._wars: List[int] = []
        #: The number of agents in a leader state.
        self.leaders = 0
        # For the guard (may_be_safe): segment code -> its dist * 2 + last
        # and its b, and what it compares them with (see _lay_out).
        self._place_of_segment: List[int] = []
        self._b_of_segment: List[int] = []
        self._cdl_places: List[int] = []
        self._id_weights: List[int] = []
        self._canonical_segments: List[slice] = []

    # ------------------------------------------------------------------ #
    # The engine's interface
    # ------------------------------------------------------------------ #
    def code(self, states: Sequence[PPLState]) -> None:
        """Hold ``states`` as the agents' codes, and count their leaders."""
        timer_code = self._timer_codes.code
        segment_code = self._segment_codes.code
        war_code = self._war_code
        self._timers = [timer_code(_timers_of(state)) for state in states]
        self._segments = [segment_code(_segment_of(state)) for state in states]
        self._wars = [war_code(_war_of(state)) for state in states]
        leader_of = self._leader_of
        self.leaders = sum(leader_of[code] for code in self._wars)

    def view(self) -> List[PPLState]:
        """The agents' states, decoded afresh."""
        heads, tails = self._war_heads, self._war_tails
        segments = self._segment_codes.values
        timers = self._timer_codes.values
        return [_new_state(PPLState, heads[war] + segments[segment] + timers[timer]
                           + tails[war])
                for timer, segment, war in zip(self._timers, self._segments, self._wars)]

    def apply(self, arcs: Sequence[Tuple[int, int]], counts: List[int]) -> int:
        """Run the interactions of ``arcs`` in order, count each agent's in
        ``counts`` and return how many changed some state."""
        timers, segments, wars = self._timers, self._segments, self._wars
        leader_of = self._leader_of
        timer_stride = self._timer_codes.stride
        segment_stride = self._segment_codes.stride
        war_stride = self._war_codes.stride
        timer_entry = self._timer_table.get
        segment_entry = self._segment_table.get
        war_entry = self._war_table.get
        effective = 0
        leaders = self.leaders
        for initiator, responder in arcs:
            l_timer = timers[initiator]
            r_timer = timers[responder]
            l_war = wars[initiator]
            r_war = wars[responder]
            l_leader = leader_of[l_war]
            key = (l_timer * timer_stride + r_timer) * 2 + l_leader
            entry = timer_entry(key)
            if entry is None:
                entry = self._fill_timers(key, l_leader, l_timer, r_timer)
            new_l_timer, new_r_timer, detect = entry
            l_segment = segments[initiator]
            r_segment = segments[responder]
            r_leader = leader_of[r_war]
            key = ((l_segment * segment_stride + r_segment) * 2 + r_leader) * 2 + detect
            entry = segment_entry(key)
            if entry is None:
                entry = self._fill_segments(key, l_segment, r_segment, r_leader, detect)
            new_l_segment, new_r_segment, created = entry
            key = (l_war * war_stride + r_war) * 2 + created
            entry = war_entry(key)
            if entry is None:
                entry = self._fill_war(key, l_war, r_war, created)
            new_l_war, new_r_war = entry
            if (new_l_timer != l_timer or new_r_timer != r_timer
                    or new_l_segment != l_segment or new_r_segment != r_segment
                    or new_l_war != l_war or new_r_war != r_war):
                effective += 1
                timers[initiator] = new_l_timer
                timers[responder] = new_r_timer
                segments[initiator] = new_l_segment
                segments[responder] = new_r_segment
                wars[initiator] = new_l_war
                wars[responder] = new_r_war
                leaders += leader_of[new_r_war] - r_leader
            counts[initiator] += 1
            counts[responder] += 1
        self.leaders = leaders
        return effective

    def may_be_safe(self) -> bool:
        """False wherever :func:`~repro.protocols.ppl.safety.is_safe` is,
        read from the codes without decoding a state: the guard of
        ``P_PL``'s stop predicate (:func:`~repro.core.fast_simulator.guarded`).

        It checks the conjuncts of ``S_PL`` that sit in the war and segment
        codes, with the formulas of :func:`~repro.protocols.ppl.safety.in_cdl`
        and :func:`~repro.protocols.ppl.safety.segment_ids_consistent`:
        exactly one leader and, at offset ``i`` from it, ``dist = i mod
        2*psi``, ``last = 1`` exactly from ``psi*(zeta-1)`` on, and canonical
        segment IDs that count up by one modulo ``2**psi``.  Bullets
        (``C_PB``) and tokens are left to ``is_safe``.
        """
        if self.leaders != 1:
            return False
        leader = list(map(self._leader_of.__getitem__, self._wars)).index(1)
        ring = self._segments[leader:] + self._segments[:leader]
        places, bits = self._place_of_segment, self._b_of_segment
        for b, dist, last, _, _ in self._segment_codes.values[len(places):]:
            places.append(dist * 2 + last)
            bits.append(b)
        if len(self._cdl_places) != len(ring):
            self._lay_out(len(ring))
        if list(map(places.__getitem__, ring)) != self._cdl_places:
            return False
        weighted = list(map(mul, map(bits.__getitem__, ring), self._id_weights))
        ids = list(map(sum, map(weighted.__getitem__, self._canonical_segments)))
        modulus = self._segment_id_modulus
        return ids[1:] == [(ident + 1) % modulus for ident in ids[:-1]]

    def _lay_out(self, n: int) -> None:
        """Make what :meth:`may_be_safe` compares a ring of ``n`` agents
        with, read from the leader on: each offset's ``dist * 2 + last`` in
        ``C_DL``, the weight of each bit of the canonical segments ``S_0 ..
        S_{zeta-2}`` in its segment's ID, and their slices."""
        psi = self._psi
        last_segment_start = psi * (expected_segment_count(n, psi) - 1)
        self._cdl_places = [(offset % self._dist_modulus) * 2 + int(offset >= last_segment_start)
                            for offset in range(n)]
        self._id_weights = [1 << (offset % psi) for offset in range(last_segment_start)]
        self._canonical_segments = [slice(start, start + psi)
                                    for start in range(0, last_segment_start, psi)]

    # ------------------------------------------------------------------ #
    # Filling the tables (the misses)
    # ------------------------------------------------------------------ #
    def _war_code(self, value: tuple) -> int:
        code = self._war_codes.code(value)
        if code == len(self._leader_of):
            self._leader_of.append(value[0])
            self._war_heads.append(value[:1])
            self._war_tails.append(value[1:])
        return code

    def _clear(self, table: Dict) -> None:
        """Empty a stage table that holds the bound's number of entries."""
        table.clear()

    def _store(self, table: Dict, key: int, entry: tuple) -> tuple:
        if len(table) >= self._max_entries:
            self._clear(table)
        table[key] = entry
        return entry

    def _fill_timers(self, key: int, l_leader: int, l_timer: int,
                     r_timer: int) -> Tuple[int, int, int]:
        codes = self._timer_codes
        _, l_clock, _, l_signal_r = codes.values[l_timer]
        _, r_clock, r_hits, r_signal_r = codes.values[r_timer]
        (l_hits, l_clock, l_signal_r, l_mode,
         r_hits, r_clock, r_signal_r, r_mode) = determine_mode(
            l_leader, l_clock, l_signal_r, r_clock, r_hits, r_signal_r,
            self._psi, self._kappa_max)
        return self._store(self._timer_table, key, (
            codes.code((l_mode, l_clock, l_hits, l_signal_r)),
            codes.code((r_mode, r_clock, r_hits, r_signal_r)),
            int(r_mode == MODE_DETECT)))

    def _fill_segments(self, key: int, l_segment: int, r_segment: int,
                       r_leader: int, detect: int) -> Tuple[int, int, int]:
        codes = self._segment_codes
        l_b, l_dist, l_last, l_token_b, l_token_w = codes.values[l_segment]
        r_b, r_dist, r_last, r_token_b, r_token_w = codes.values[r_segment]
        (l_last, l_token_b, l_token_w, r_b, r_dist, r_token_b, r_token_w,
         created) = segment_stage(
            l_b, l_dist, l_last, l_token_b, l_token_w,
            r_leader, r_b, r_dist, r_last, r_token_b, r_token_w,
            MODE_DETECT if detect else MODE_CONSTRUCT, self._psi, self._dist_modulus)
        return self._store(self._segment_table, key, (
            codes.code((l_b, l_dist, l_last, l_token_b, l_token_w)),
            codes.code((r_b, r_dist, r_last, r_token_b, r_token_w)),
            int(created)))

    def _fill_war(self, key: int, l_war: int, r_war: int,
                  created: int) -> Tuple[int, int]:
        values = self._war_codes.values
        l_leader, l_bullet, l_shield, l_signal_b = values[l_war]
        r_leader, r_bullet, r_shield, r_signal_b = values[r_war]
        (l_bullet, l_shield, l_signal_b,
         r_leader, r_bullet, r_shield, r_signal_b) = war_stage(
            l_leader, l_bullet, l_shield, l_signal_b,
            r_leader, r_bullet, r_shield, r_signal_b, created)
        return self._store(self._war_table, key, (
            self._war_code((l_leader, l_bullet, l_shield, l_signal_b)),
            self._war_code((r_leader, r_bullet, r_shield, r_signal_b))))
