"""``MoveToken()`` — Algorithm 3 of the paper (Section 3.2).

Black tokens (``d = 0``) and white tokens (``d = psi``) implement the binary
increment of segment IDs.  A token is generated at a border agent, zig-zags
between two adjacent segments following the trajectory of Figure 2, and either

* *constructs* the next segment's ID (construction mode: it copies its value
  bit into the target agent's ``b``), or
* *checks* it (detection mode: a mismatch between the carried bit and the
  target's ``b`` proves the configuration is not perfect, so the target
  becomes a leader).

Token encoding: ``(pos, b', b'')`` where ``pos`` is the signed relative
position of the token's target (positive = target is ``pos`` agents to the
right, negative = ``|pos|`` agents to the left), ``b'`` the bit being
written/checked and ``b''`` the carry flag of the binary increment.

Pseudocode fidelity note: line 30 of the paper reads
``l.token <- (r.token[1]+1, l.token[2], l.token[3])`` although ``l.token`` may
be absent at that point; we implement the evident intent that a leftward
moving token carries *its own* bits (see DESIGN.md, "Pseudocode ambiguities
resolved").
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.state import Token

#: Marker for the black token variable (trajectory anchored at dist = 0 borders).
BLACK = "B"
#: Marker for the white token variable (trajectory anchored at dist = psi borders).
WHITE = "W"


def token_offset(color: str, params: PPLParams) -> int:
    """The paper's ``d``: 0 for black tokens, ``psi`` for white tokens."""
    return 0 if color == BLACK else params.psi


def is_invalid_token(dist: int, token: Token, d: int, psi: int,
                     dist_modulus: int) -> bool:
    """The ``InvalidToken(v, d)`` macro (Definition 3.3).

    ``dist`` is the holder's distance and ``token`` its token of the color
    whose offset is ``d``.  A token is invalid when its target, computed
    from ``dist`` and the token's relative position (normalised by ``d`` so
    that white trajectories look like black ones), falls outside the
    Figure-2 trajectory: a right-moving token must land on an agent at
    normalised distance ``[psi, 2*psi - 1]`` (the second segment of its
    window) and a left-moving token on ``[1, psi - 1]`` (the interior of the
    first segment).

    Fidelity note: Definition 3.3 lists exactly these landing zones but flags
    a token as invalid when the landing falls *inside* them; read literally
    that would delete every token on its legal trajectory (and would keep the
    token alive at its final destination, contradicting the prose "a valid
    token ... disappears" and the role "deleting a token that has reached the
    final destination" attributed to lines 32-33).  We therefore implement the
    evident intent: invalid = landing *outside* the stated zone.  See
    DESIGN.md, "Pseudocode ambiguities resolved".
    """
    if token is None:
        return False
    position = token[0]
    landing = (dist + position + d) % dist_modulus
    if position > 0 and not psi <= landing <= 2 * psi - 1:
        return True
    if position < 0 and not 1 <= landing <= psi - 1:
        return True
    return False


def move_token(l_dist: int, l_b: int, l_last: int, l_token: Token,
               r_dist: int, r_b: int, r_last: int, r_mode: str, r_token: Token,
               d: int, psi: int, dist_modulus: int
               ) -> Tuple[Token, Token, int, bool]:
    """Apply Algorithm 3 for the token color with offset ``d`` to the pair.

    ``l_token`` and ``r_token`` are the initiator's and the responder's
    token of that color.  Returns the fields the algorithm writes,
    ``(l_token, r_token, r_b, created)``: ``created`` is True when line 18
    makes the responder a leader, which the caller applies as the
    leader-creation assignment (see :func:`create_leader
    <repro.protocols.ppl.create_leader.create_leader>`).
    """
    # Lines 12-13: a border agent of this color that is not in the last
    # segment and holds no token creates one, initialised with the binary
    # increment of its own bit (value 1-b, carry b) and target psi to the
    # right.
    if l_dist == d and l_last == 0 and l_token is None:
        l_token = (psi, 1 - l_b, l_b)

    # Lines 14-15: a right-moving token disappears when it bumps into another
    # token of the same color or would enter the last segment.
    if l_token is not None and (r_token is not None or r_last == 1):
        l_token = None

    created = False
    if l_token is not None and l_token[0] == 1:
        # Lines 16-22: the token reaches its rightward target (the responder).
        _, value_bit, carry_bit = l_token
        if r_mode == MODE_DETECT and value_bit != r_b:
            # Line 18: the carried bit contradicts the embedded bit — the
            # configuration cannot be perfect, so create a leader.
            created = True
        elif r_mode == MODE_CONSTRUCT:
            # Line 20: construction mode simply writes the bit.
            r_b = value_bit
        # Lines 21-22: turn around and head 1-psi agents to the left.
        r_token = (1 - psi, value_bit, carry_bit)
        l_token = None
    elif l_token is not None and l_token[0] >= 2:
        # Lines 23-25: keep moving right, decrementing the remaining distance.
        r_token = (l_token[0] - 1, l_token[1], l_token[2])
        l_token = None
    elif r_token is not None and r_token[0] == -1:
        # Lines 26-28: the token reaches its leftward target (the initiator);
        # apply one step of the binary increment and head right again.
        if r_token[2] == 1:
            l_token = (psi, 1 - l_b, l_b)
        else:
            l_token = (psi, l_b, 0)
        r_token = None
    elif r_token is not None and r_token[0] <= -2:
        # Lines 29-31: keep moving left (carrying the token's own bits; see
        # the fidelity note in the module docstring).
        l_token = (r_token[0] + 1, r_token[1], r_token[2])
        r_token = None

    # Lines 32-33: tokens in the last segment and invalid tokens are deleted.
    if l_token is not None and (
        l_last == 1 or is_invalid_token(l_dist, l_token, d, psi, dist_modulus)
    ):
        l_token = None
    if r_token is not None and (
        r_last == 1 or is_invalid_token(r_dist, r_token, d, psi, dist_modulus)
    ):
        r_token = None
    return l_token, r_token, r_b, created
