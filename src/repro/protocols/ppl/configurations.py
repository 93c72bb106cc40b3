"""Builders of notable ``P_PL`` configurations.

These construct members of the configuration sets studied in Section 4
(safe configurations, leaderless traps, all-leader extremes …) and the
adversarial starting points used by the experiments.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.configuration import Configuration
from repro.core.errors import InvalidParameterError
from repro.core.rng import RandomSource, ensure_source
from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams, expected_segment_count
from repro.protocols.ppl.state import PPLState, random_state


def _segment_bits(segment_rank: int, psi: int, start_id: int, modulus: int) -> List[int]:
    """Bits (lsb first) of the ID assigned to segment ``segment_rank``."""
    value = (start_id + segment_rank) % modulus
    return [(value >> position) & 1 for position in range(psi)]


def perfect_configuration(n: int, params: PPLParams, leader_at: int = 0,
                          start_id: int = 0) -> Configuration[PPLState]:
    """A member of ``S_PL``: one leader, exact ``dist``/``last``, consistent IDs, no tokens.

    This is the canonical safe configuration used to seed closure tests and
    the Figure-1 rendering.  The leader sits at ``leader_at``; segment ``S_i``
    carries ID ``(start_id + i) mod 2**psi``; the last segment's bits are
    zero (they are unconstrained).
    """
    if not params.supports_population(n):
        raise InvalidParameterError(
            f"psi={params.psi} does not support a population of {n} agents"
        )
    psi = params.psi
    zeta = expected_segment_count(n, psi)
    last_segment_start = psi * (zeta - 1)
    states: List[PPLState] = []
    for offset in range(n):
        segment_rank = offset // psi
        position_in_segment = offset % psi
        if segment_rank <= zeta - 2:
            bit = _segment_bits(segment_rank, psi, start_id, params.segment_id_modulus)[
                position_in_segment
            ]
        else:
            bit = 0
        state = PPLState(
            leader=1 if offset == 0 else 0,
            b=bit,
            dist=offset % params.dist_modulus,
            last=1 if offset >= last_segment_start else 0,
            token_b=None,
            token_w=None,
            mode=MODE_CONSTRUCT,
            clock=0,
            hits=0,
            signal_r=0,
            bullet=0,
            shield=1 if offset == 0 else 0,
            signal_b=0,
        )
        states.append(state)
    configuration = Configuration(states)
    if leader_at % n != 0:
        configuration = configuration.rotate(-(leader_at % n))
    return configuration


def leaderless_configuration(n: int, params: PPLParams, start_id: int = 0,
                             detection_mode: bool = True,
                             consistent_dist: bool = True) -> Configuration[PPLState]:
    """A leaderless configuration, the hard case for ``CreateLeader()``.

    With ``consistent_dist`` the ``dist`` values follow Equation (1) as far as
    possible (the seam where the ring size is not a multiple of ``2*psi`` is
    unavoidable and is exactly what detection exploits); segment IDs increase
    by one, which by Lemma 3.2 still cannot be globally consistent, so a
    leader must eventually be created.  With ``detection_mode`` every clock is
    saturated so the detection machinery is active from step one (isolating
    the token-checking part, Lemma 3.7's ``C_det``); otherwise the clocks are
    zero and the full mode-determination pipeline has to run first.
    """
    psi = params.psi
    states: List[PPLState] = []
    for offset in range(n):
        segment_rank = offset // psi
        position_in_segment = offset % psi
        bit = _segment_bits(segment_rank, psi, start_id, params.segment_id_modulus)[
            position_in_segment
        ]
        dist = offset % params.dist_modulus if consistent_dist else 0
        state = PPLState(
            leader=0,
            b=bit,
            dist=dist,
            last=0,
            token_b=None,
            token_w=None,
            mode=MODE_DETECT if detection_mode else MODE_CONSTRUCT,
            clock=params.kappa_max if detection_mode else 0,
            hits=0,
            signal_r=0,
            bullet=0,
            shield=0,
            signal_b=0,
        )
        states.append(state)
    return Configuration(states)


def all_leaders_configuration(n: int, params: PPLParams) -> Configuration[PPLState]:
    """Every agent is a freshly created leader — the elimination stress test."""
    del params  # the state does not depend on psi; kept for interface symmetry
    return Configuration([PPLState.fresh_leader() for _ in range(n)])


def many_leaders_configuration(n: int, params: PPLParams, leaders: int,
                               rng: "RandomSource | int | None" = None) -> Configuration[PPLState]:
    """``leaders`` fresh leaders at random positions, followers elsewhere."""
    if not 1 <= leaders <= n:
        raise InvalidParameterError(f"leaders must be in [1, {n}], got {leaders}")
    source = ensure_source(rng)
    positions = list(range(n))
    source.shuffle(positions)
    chosen = set(positions[:leaders])
    states = [
        PPLState.fresh_leader() if agent in chosen
        else PPLState.follower(dist=agent % params.dist_modulus)
        for agent in range(n)
    ]
    return Configuration(states)


def adversarial_configuration(n: int, params: PPLParams,
                              rng: "RandomSource | int | None" = None) -> Configuration[PPLState]:
    """Every field of every agent drawn uniformly at random — the default adversary."""
    source = ensure_source(rng)
    return Configuration([random_state(source, params) for _ in range(n)])


def corrupted_safe_configuration(n: int, params: PPLParams, corruptions: int,
                                 rng: "RandomSource | int | None" = None) -> Configuration[PPLState]:
    """A safe configuration with ``corruptions`` agents overwritten by random states.

    Models transient faults hitting a converged population — the motivating
    scenario for self-stabilization.
    """
    if corruptions < 0:
        raise InvalidParameterError(f"corruptions must be >= 0, got {corruptions}")
    source = ensure_source(rng)
    configuration = perfect_configuration(n, params)
    states = configuration.states()
    victims = list(range(n))
    source.shuffle(victims)
    for agent in victims[: min(corruptions, n)]:
        states[agent] = random_state(source, params)
    return Configuration(states)


def mid_configuration(n: int, params: PPLParams) -> Configuration[PPLState]:
    """A member of the paper's ``C_mid`` (Lemma 3.6): safe with all clocks at most half.

    Built from :func:`perfect_configuration`, whose clocks are all zero, so it
    trivially satisfies the half-``kappa_max`` condition; exposed under its own
    name so experiments that cite Lemma 3.6 read naturally.
    """
    return perfect_configuration(n, params)


def single_leader_unconstructed(n: int, params: PPLParams,
                                leader_at: int = 0) -> Configuration[PPLState]:
    """Exactly one leader but ``dist``/``b``/``last`` all zero — construction must run.

    This isolates the construction phase (Section 3.2, first bullet): the
    population must rebuild distances, the last-segment flags and the segment
    IDs before reaching ``S_PL``.
    """
    states = [PPLState.follower(dist=0, b=0, last=0) for _ in range(n)]
    states[leader_at % n] = PPLState.fresh_leader()._replace(bullet=0)
    return Configuration(states)


def configuration_with_invalid_tokens(n: int, params: PPLParams,
                                      rng: "RandomSource | int | None" = None,
                                      ) -> Configuration[PPLState]:
    """A safe-looking configuration sprinkled with off-trajectory (invalid) tokens.

    Exercises the token-deletion rules (Algorithm 3 lines 32-33): the invalid
    tokens must be cleaned up without ever creating a spurious leader.
    """
    source = ensure_source(rng)
    configuration = perfect_configuration(n, params)
    states = configuration.states()
    psi = params.psi
    for agent in range(0, n, max(1, n // 8)):
        # A right-moving token whose landing falls in the wrong half of the
        # window is invalid by Definition 3.3.
        bad_position = source.randint(1, psi)
        states[agent] = states[agent]._replace(
            token_b=(bad_position, source.randint(0, 1), source.randint(0, 1)))
    return Configuration(states)


def detection_ready_configuration(n: int, params: PPLParams,
                                  start_id: Optional[int] = None) -> Configuration[PPLState]:
    """Alias for the leaderless, clocks-saturated configuration used by Lemma 3.7 runs."""
    return leaderless_configuration(
        n, params, start_id=0 if start_id is None else start_id, detection_mode=True
    )
