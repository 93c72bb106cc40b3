"""Per-agent state of ``P_PL`` (the variable list of Algorithm 1).

Each agent maintains:

=============  ======================================================  ====================
variable       domain                                                  purpose
=============  ======================================================  ====================
``leader``     ``{0, 1}``                                              output variable
``b``          ``{0, 1}``                                              segment-ID bit
``dist``       ``[0, 2*psi - 1]``                                      distance to the nearest left leader modulo ``2*psi``
``last``       ``{0, 1}``                                              member of the last segment?
``token_b``    ``bottom`` or ``(pos, b', b'')``                        black token (Alg. 3 with ``d = 0``)
``token_w``    ``bottom`` or ``(pos, b', b'')``                        white token (Alg. 3 with ``d = psi``)
``mode``       ``{Detect, Construct}``                                 detection vs construction mode
``clock``      ``[0, kappa_max]``                                      leader-absence barometer
``hits``       ``[0, psi]``                                            lottery-game counter
``signal_r``   ``[0, kappa_max]``                                      TTL of the resetting signal
``bullet``     ``{0, 1, 2}``                                           no / dummy / live bullet
``shield``     ``{0, 1}``                                              shielded leader?
``signal_b``   ``{0, 1}``                                              bullet-absence signal
=============  ======================================================  ====================

A token value ``(pos, b', b'')`` has ``pos`` in ``[-psi+1, -1] union [1, psi]``
(relative position of the token's target: positive = moving right, negative =
moving left) and carries the bit ``b'`` being written/checked plus the carry
flag ``b''``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.core.errors import InvalidStateError
from repro.core.rng import RandomSource
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams

#: A token is either absent (None) or a triple (position, value-bit, carry-bit).
Token = Optional[Tuple[int, int, int]]

#: Bullet values (Algorithm 5).
BULLET_NONE = 0
BULLET_DUMMY = 1
BULLET_LIVE = 2


class PPLState(NamedTuple):
    """Immutable state record for one agent running ``P_PL``.

    A named tuple, so a state is hashable and is its own table key; a
    variant of a state is built with ``_replace``.
    """

    leader: int
    b: int
    dist: int
    last: int
    token_b: Token
    token_w: Token
    mode: str
    clock: int
    hits: int
    signal_r: int
    bullet: int
    shield: int
    signal_b: int

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def follower(cls, dist: int = 0, b: int = 0, last: int = 0,
                 mode: str = MODE_CONSTRUCT) -> "PPLState":
        """A quiescent follower with the given distance/bit values."""
        return cls(
            leader=0, b=b, dist=dist, last=last, token_b=None, token_w=None,
            mode=mode, clock=0, hits=0, signal_r=0,
            bullet=BULLET_NONE, shield=0, signal_b=0,
        )

    @classmethod
    def fresh_leader(cls) -> "PPLState":
        """A leader exactly as created by Algorithm 2 line 6 / Algorithm 3 line 18.

        A newly created leader fires a live bullet, raises its shield and
        clears the bullet-absence signal.
        """
        return cls(
            leader=1, b=0, dist=0, last=0, token_b=None, token_w=None,
            mode=MODE_CONSTRUCT, clock=0, hits=0, signal_r=0,
            bullet=BULLET_LIVE, shield=1, signal_b=0,
        )

    # ------------------------------------------------------------------ #
    # Derived predicates
    # ------------------------------------------------------------------ #
    def is_border(self, params: PPLParams) -> bool:
        """True when this agent is a border (``dist in {0, psi}``)."""
        return self.dist in (0, params.psi)

    def is_detecting(self) -> bool:
        """True when the agent is in the detection mode."""
        return self.mode == MODE_DETECT

    def token(self, color: str) -> Token:
        """Return the black (``"B"``) or white (``"W"``) token."""
        return self.token_b if color == "B" else self.token_w

    def as_tuple(self) -> tuple:
        """The 13 field values as a plain tuple, in declaration order."""
        return tuple(self)


def validate_token(token: Token, params: PPLParams, name: str) -> None:
    """Raise :class:`InvalidStateError` when a token value is outside its domain."""
    if token is None:
        return
    if not isinstance(token, tuple) or len(token) != 3:
        raise InvalidStateError(f"{name} must be None or a 3-tuple, got {token!r}")
    position, value_bit, carry_bit = token
    psi = params.psi
    valid_position = (-psi + 1 <= position <= -1) or (1 <= position <= psi)
    if not valid_position:
        raise InvalidStateError(
            f"{name} position {position} outside [-psi+1,-1] union [1,psi] for psi={psi}"
        )
    if value_bit not in (0, 1) or carry_bit not in (0, 1):
        raise InvalidStateError(f"{name} bits must be 0/1, got {token!r}")


def validate_state(state: PPLState, params: PPLParams) -> None:
    """Validate every field of a ``P_PL`` state against its declared domain."""
    if state.leader not in (0, 1):
        raise InvalidStateError(f"leader must be 0/1, got {state.leader!r}")
    if state.b not in (0, 1):
        raise InvalidStateError(f"b must be 0/1, got {state.b!r}")
    if not 0 <= state.dist < params.dist_modulus:
        raise InvalidStateError(
            f"dist must be in [0, {params.dist_modulus - 1}], got {state.dist!r}"
        )
    if state.last not in (0, 1):
        raise InvalidStateError(f"last must be 0/1, got {state.last!r}")
    validate_token(state.token_b, params, "token_b")
    validate_token(state.token_w, params, "token_w")
    if state.mode not in (MODE_DETECT, MODE_CONSTRUCT):
        raise InvalidStateError(f"mode must be Detect/Construct, got {state.mode!r}")
    if not 0 <= state.clock <= params.kappa_max:
        raise InvalidStateError(f"clock must be in [0, {params.kappa_max}], got {state.clock!r}")
    if not 0 <= state.hits <= params.psi:
        raise InvalidStateError(f"hits must be in [0, {params.psi}], got {state.hits!r}")
    if not 0 <= state.signal_r <= params.kappa_max:
        raise InvalidStateError(
            f"signal_r must be in [0, {params.kappa_max}], got {state.signal_r!r}"
        )
    if state.bullet not in (BULLET_NONE, BULLET_DUMMY, BULLET_LIVE):
        raise InvalidStateError(f"bullet must be 0/1/2, got {state.bullet!r}")
    if state.shield not in (0, 1):
        raise InvalidStateError(f"shield must be 0/1, got {state.shield!r}")
    if state.signal_b not in (0, 1):
        raise InvalidStateError(f"signal_b must be 0/1, got {state.signal_b!r}")


def random_token(rng: RandomSource, params: PPLParams) -> Token:
    """Draw an arbitrary token value (including absent) uniformly."""
    if rng.coin():
        return None
    psi = params.psi
    positions = list(range(-psi + 1, 0)) + list(range(1, psi + 1))
    return (rng.choice(positions), rng.randint(0, 1), rng.randint(0, 1))


def random_state(rng: RandomSource, params: PPLParams) -> PPLState:
    """Draw an arbitrary ``P_PL`` state uniformly from the full state space.

    Used to build adversarial initial configurations: self-stabilization must
    cope with *any* assignment, so every field is drawn independently.
    """
    return PPLState(
        leader=rng.randint(0, 1),
        b=rng.randint(0, 1),
        dist=rng.randrange(params.dist_modulus),
        last=rng.randint(0, 1),
        token_b=random_token(rng, params),
        token_w=random_token(rng, params),
        mode=MODE_DETECT if rng.coin() else MODE_CONSTRUCT,
        clock=rng.randint(0, params.kappa_max),
        hits=rng.randint(0, params.psi),
        signal_r=rng.randint(0, params.kappa_max),
        bullet=rng.randint(0, 2),
        shield=rng.randint(0, 1),
        signal_b=rng.randint(0, 1),
    )
