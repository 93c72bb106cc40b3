"""``DetermineMode()`` — Algorithm 4 of the paper (Section 3.3).

Determines whether agents are in the *construction* or the *detection* mode
through three cooperating mechanisms:

* **Resetting signals.**  A leader loads ``signal_r = kappa_max`` whenever it
  initiates an interaction (lines 34-35).  A signal travels clockwise (line
  42), resetting the ``clock`` of every agent it visits (line 39); when two
  signals meet, the one with the larger TTL survives (absorption, lines
  40-42).
* **The lottery game.**  ``hits`` counts how many consecutive interactions an
  agent had without interacting with its right neighbor: the initiator resets
  its counter (line 36), the responder increments it (line 37).  Reaching
  ``hits = psi`` is "winning a round" of the lottery game (Definition 3.8);
  each win decrements the TTL of a signal held by the winner (lines 43-45) or,
  when no signal is around, increments the winner's ``clock`` (lines 46-48).
* **Mode assignment.**  An agent is in the detection mode exactly when its
  clock has saturated at ``kappa_max`` (lines 49-50).

The net effect (Lemmas 3.6/3.7): with a leader present all agents stay in the
construction mode for ``Omega(kappa_max * n^2)`` steps w.h.p.; without a
leader all signals die out and every clock saturates within ``O(n^2 log n)``
steps w.h.p., putting the whole ring in the detection mode.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT


def determine_mode(l_leader: int, l_clock: int, l_signal_r: int,
                   r_clock: int, r_hits: int, r_signal_r: int,
                   psi: int, kappa_max: int
                   ) -> Tuple[int, int, int, str, int, int, int, str]:
    """Apply Algorithm 4 to the (initiator ``l``, responder ``r``) pair.

    Takes the fields the algorithm reads and returns the ones it writes:
    ``(l_hits, l_clock, l_signal_r, l_mode, r_hits, r_clock, r_signal_r,
    r_mode)``.
    """
    # Lines 34-35: a leader (as initiator) generates a fresh resetting signal.
    if l_leader == 1:
        l_signal_r = kappa_max

    # Lines 36-37: the lottery game counters.  Interacting with the right
    # neighbor resets the counter; interacting with the left neighbor
    # increments it (capped at psi).
    l_hits = 0
    r_hits = r_hits + 1 if r_hits < psi else psi

    if l_signal_r > 0 or r_signal_r > 0:
        # Line 39: any signal in sight resets both clocks.
        l_clock = 0
        r_clock = 0
        # Lines 40-41: when the left signal absorbs the right one, the
        # responder's lottery counter is reset to simplify the analysis.
        if l_signal_r >= r_signal_r > 0:
            r_hits = 0
        # Line 42: the surviving signal moves (or stays) right with the
        # larger TTL.
        l_signal_r, r_signal_r = 0, max(l_signal_r, r_signal_r)
        # Lines 43-45: a lottery win observed by an agent holding a signal
        # decrements the signal's TTL.
        if r_hits == psi:
            r_signal_r = max(0, r_signal_r - 1)
            r_hits = 0
    elif r_hits == psi:
        # Lines 46-48: a lottery win with no signal around advances the clock.
        r_clock = min(r_clock + 1, kappa_max)
        r_hits = 0

    # Lines 49-50: the mode is a pure function of the clock.
    l_mode = MODE_DETECT if l_clock == kappa_max else MODE_CONSTRUCT
    r_mode = MODE_DETECT if r_clock == kappa_max else MODE_CONSTRUCT
    return l_hits, l_clock, l_signal_r, l_mode, r_hits, r_clock, r_signal_r, r_mode
