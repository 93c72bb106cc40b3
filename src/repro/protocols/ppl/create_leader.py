"""``CreateLeader()`` — Algorithm 2 of the paper (Section 3.2).

Creates a new leader when the population contains none.  It has three parts:

1. call :func:`~repro.protocols.ppl.determine_mode.determine_mode` (line 3),
2. maintain ``dist`` and ``last`` (lines 4-9): the responder recomputes its
   distance-to-the-nearest-left-leader modulo ``2*psi``; in the construction
   mode it adopts the recomputed value, in the detection mode a mismatch is a
   proof of imperfection and the responder becomes a leader,
3. drive the black and white tokens (lines 10-11) which construct/check the
   segment IDs; see :mod:`repro.protocols.ppl.move_token`.

:func:`create_leader` is part 2.  Parts 1 and 3 are calls to the other
algorithms' functions, which :meth:`PPLProtocol.transition
<repro.protocols.ppl.protocol.PPLProtocol.transition>` makes in the
algorithm's order: line 3, then lines 4-9, then lines 10 and 11.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT


def create_leader(l_dist: int, r_leader: int, r_dist: int, r_last: int,
                  r_mode: str, psi: int, dist_modulus: int
                  ) -> Tuple[int, int, bool]:
    """Apply lines 4-9 of Algorithm 2 to the (initiator ``l``, responder ``r``) pair.

    Runs after line 3, so ``r_mode`` is the mode ``determine_mode`` wrote.
    Returns the fields the lines write, ``(l_last, r_dist, created)``:
    ``created`` is True when line 6 makes the responder a leader, which the
    caller applies as the leader-creation assignment (``leader = 1``, a live
    bullet, the shield up, ``signal_b = 0``).
    """
    # Line 4: recompute the responder's distance to its nearest left leader.
    if r_leader == 1:
        recomputed_dist = 0
    else:
        recomputed_dist = (l_dist + 1) % dist_modulus

    # Lines 5-6: in the detection mode a mismatch proves the configuration is
    # not perfect, so the responder becomes a leader (firing a live bullet and
    # raising its shield, exactly like Algorithm 5 requires).
    created = r_mode == MODE_DETECT and recomputed_dist != r_dist

    # Lines 7-8: in the construction mode the responder simply adopts the
    # recomputed distance.
    if r_mode == MODE_CONSTRUCT:
        r_dist = recomputed_dist

    # Line 9: the initiator learns whether it belongs to the last segment
    # (the segment whose right border is a leader).
    if r_leader == 1 or created:
        l_last = 1
    elif r_dist == 0 or r_dist == psi:
        l_last = 0
    else:
        l_last = r_last
    return l_last, r_dist, created
