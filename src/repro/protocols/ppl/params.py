"""Parameters of the protocol ``P_PL``.

The protocol is parameterised by the common knowledge
``psi = ceil(log2 n) + O(1)`` (Section 2).  All other quantities are derived
from ``psi``:

* ``dist`` lives in ``[0, 2*psi - 1]`` (distances are taken modulo ``2*psi``
  so that borders sit at ``dist in {0, psi}`` and all segments have length
  ``psi``),
* segment IDs are ``psi``-bit integers, i.e. live in ``[0, 2**psi - 1]``,
* ``kappa_max = c1 * psi`` for a constant ``c1 >= 32`` (Section 3.3),
  exposed as the tunable ``kappa_factor`` (experiments that shrink it for
  speed say so).  It sets how long a leaderless ring takes to saturate its
  clocks: from the leaderless trap, mean convergence times are 8.3-8.4x
  larger at ``c1 = 32`` than at ``c1 = 4`` (n = 32 and 64).  From uniform
  adversarial starts the two constants give nearly equal means.

The paper requires ``2**psi >= n`` (used in Lemma 3.2) and ``psi >= 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import InvalidParameterError

#: Detection mode marker (the paper's ``Detect``).
MODE_DETECT = "D"
#: Construction mode marker (the paper's ``Construct``).
MODE_CONSTRUCT = "C"

#: The paper's default constant ``c1`` in ``kappa_max = c1 * psi`` (Section 3.3).
DEFAULT_KAPPA_FACTOR = 32


@dataclass(frozen=True)
class PPLParams:
    """Immutable parameter bundle shared by every ``P_PL`` component.

    Attributes
    ----------
    psi:
        The knowledge ``psi = ceil(log2 n) + O(1)``; must be at least 2.
    kappa_factor:
        The constant ``c1`` in ``kappa_max = c1 * psi``.  The paper assumes
        ``c1 >= 32`` for its w.h.p. statements; smaller values keep the
        protocol correct (convergence with probability 1), weaken the
        probability bounds and shorten leader-absence detection (see the
        module docstring), and are convenient for fast tests.
    """

    psi: int
    kappa_factor: int = DEFAULT_KAPPA_FACTOR

    def __post_init__(self) -> None:
        if self.psi < 2:
            raise InvalidParameterError(f"psi must be >= 2, got {self.psi}")
        if self.kappa_factor < 1:
            raise InvalidParameterError(
                f"kappa_factor must be >= 1, got {self.kappa_factor}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def kappa_max(self) -> int:
        """``kappa_max = kappa_factor * psi`` — clock and signal TTL ceiling."""
        return self.kappa_factor * self.psi

    @property
    def dist_modulus(self) -> int:
        """Distances wrap modulo ``2 * psi`` so borders sit at 0 and ``psi``."""
        return 2 * self.psi

    @property
    def segment_id_modulus(self) -> int:
        """Segment IDs are ``psi``-bit integers: ``2 ** psi`` values."""
        return 2 ** self.psi

    @property
    def trajectory_length(self) -> int:
        """``2*psi^2 - 2*psi + 1`` — moves in a complete token trajectory (Def. 3.4)."""
        return 2 * self.psi * self.psi - 2 * self.psi + 1

    def max_population_size(self) -> int:
        """Largest ``n`` this parameterisation supports (``2**psi >= n``)."""
        return 2 ** self.psi

    def supports_population(self, n: int) -> bool:
        """True when a ring of ``n`` agents satisfies the knowledge assumption."""
        return 2 <= n <= self.max_population_size()

    # ------------------------------------------------------------------ #
    # State-space accounting (the polylog(n) claim)
    # ------------------------------------------------------------------ #
    def token_domain_size(self) -> int:
        """Number of values of one token variable: ``1 + (2*psi - 1) * 4``.

        ``bottom`` plus (position in ``[-psi+1, -1] union [1, psi]``, two bits).
        """
        positions = 2 * self.psi - 1
        return 1 + positions * 4

    def segment_domain_size(self) -> int:
        """Values of ``(b, dist, last, token_b, token_w)``."""
        return 2 * self.dist_modulus * 2 * self.token_domain_size() ** 2

    def timer_domain_size(self) -> int:
        """Values of ``(mode, clock, hits, signal_r)``."""
        return 2 * (self.kappa_max + 1) * (self.psi + 1) * (self.kappa_max + 1)

    def war_domain_size(self) -> int:
        """Values of ``(leader, bullet, shield, signal_b)``."""
        return 2 * 3 * 2 * 2

    def state_space_size(self) -> int:
        """Total number of per-agent states of ``P_PL`` (product of variable domains).

        This is the quantity Table 1 reports as "#states"; it is
        ``polylog(n)`` because every factor is ``O(psi) = O(log n)`` or
        constant.  It is the product of the three components' domains
        (:mod:`repro.protocols.ppl.stages`).
        """
        return (self.segment_domain_size() * self.timer_domain_size()
                * self.war_domain_size())

    def memory_bits(self) -> float:
        """Per-agent memory in bits, ``log2`` of :meth:`state_space_size`."""
        return math.log2(self.state_space_size())

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def for_population(cls, n: int, slack: int = 0,
                       kappa_factor: int = DEFAULT_KAPPA_FACTOR) -> "PPLParams":
        """Parameters for a ring of ``n`` agents.

        ``psi = ceil(log2 n) + slack`` with a floor of 2, matching the paper's
        knowledge ``psi = ceil(log2 n) + O(1)``.
        """
        if n < 2:
            raise InvalidParameterError(f"population size must be >= 2, got {n}")
        if slack < 0:
            raise InvalidParameterError(f"slack must be >= 0, got {slack}")
        psi = max(2, math.ceil(math.log2(n)) + slack)
        return cls(psi=psi, kappa_factor=kappa_factor)


def expected_segment_count(n: int, psi: int) -> int:
    """``zeta = ceil(n / psi)`` — number of segments in a one-leader perfect ring."""
    if n < 2:
        raise InvalidParameterError(f"population size must be >= 2, got {n}")
    return -(-n // psi)
