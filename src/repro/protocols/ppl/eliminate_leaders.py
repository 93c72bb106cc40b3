"""``EliminateLeaders()`` — Algorithm 5 of the paper (Section 3.4).

The leader-elimination module of Yokota, Sudo and Masuzawa (2021) [28], reused
verbatim by ``P_PL``.  Leaders wage a *bullets-and-shields war*:

* A leader fires a bullet only after learning, through the *bullet-absence
  signal* propagating right-to-left, that its previous bullet has vanished.
* At firing time the leader extracts one fair coin from the scheduler (its
  next interaction is with its right neighbor with probability 1/2): heads
  (initiator role) fires a **live** bullet and raises the shield, tails
  (responder role) fires a **dummy** bullet and drops the shield.
* Bullets travel left-to-right; a live bullet that reaches an *unshielded*
  leader kills it (the leader becomes a follower).  Shields make it
  impossible for all leaders to die simultaneously because a leader that just
  fired a live bullet is necessarily shielded.

Starting from any configuration in ``C_PB`` (all live bullets peaceful) the
war leaves exactly one leader within ``O(n^2)`` expected steps (Lemma 4.11).
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.ppl.state import BULLET_DUMMY, BULLET_LIVE, BULLET_NONE


def eliminate_leaders(l_leader: int, l_bullet: int, l_shield: int, l_signal_b: int,
                      r_leader: int, r_bullet: int, r_shield: int, r_signal_b: int
                      ) -> Tuple[int, int, int, int, int, int, int]:
    """Apply Algorithm 5 to the (initiator ``l``, responder ``r``) pair.

    Takes the war variables of both agents and returns the ones the
    algorithm writes: ``(l_bullet, l_shield, l_signal_b, r_leader, r_bullet,
    r_shield, r_signal_b)``.  Protocols whose states carry these four fields
    under these names (``P_PL`` and the baselines that borrow the war) all
    call this one function.
    """
    # Lines 51-52: a leader acting as the initiator that has received the
    # bullet-absence signal fires a live bullet and raises its shield.
    if l_leader == 1 and l_signal_b == 1:
        l_bullet = BULLET_LIVE
        l_shield = 1
        l_signal_b = 0

    # Lines 53-54: a leader acting as the responder that has received the
    # bullet-absence signal fires a dummy bullet and drops its shield.
    if r_leader == 1 and r_signal_b == 1:
        r_bullet = BULLET_DUMMY
        r_shield = 0
        r_signal_b = 0

    if l_bullet > BULLET_NONE and r_leader == 1:
        # Lines 55-57: a bullet reaching a leader disappears; a live bullet
        # kills the leader unless it is shielded.
        if l_bullet == BULLET_LIVE and r_shield == 0:
            r_leader = 0
        l_bullet = BULLET_NONE
    elif l_bullet > BULLET_NONE and r_leader == 0:
        # Lines 58-61: the bullet moves right unless the right agent already
        # holds one, and it wipes out any bullet-absence signal it passes.
        if r_bullet == BULLET_NONE:
            r_bullet = l_bullet
        l_bullet = BULLET_NONE
        r_signal_b = 0

    # Line 62: the bullet-absence signal propagates right-to-left and is
    # (re)generated at the left neighbor of a leader.
    l_signal_b = max(l_signal_b, r_signal_b, r_leader)
    return l_bullet, l_shield, l_signal_b, r_leader, r_bullet, r_shield, r_signal_b
