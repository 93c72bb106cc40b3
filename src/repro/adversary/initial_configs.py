"""Adversarial initial-configuration generators.

Self-stabilization quantifies over *every* initial configuration, so the
experiments draw starting points from a catalogue of adversaries rather than
a single distribution.  Each generator returns a
:class:`~repro.core.configuration.Configuration` for the ``P_PL`` state space;
protocol-specific adversaries for the baselines live next to their protocols.

The catalogue (used by the convergence experiments and the failure-injection
tests):

``uniform``
    every field of every agent drawn independently at random — the default
    adversary of the literature;
``leaderless_trap``
    no leader, distances and segment IDs as self-consistent as the topology
    allows, clocks cold — the configuration from which detection takes the
    longest;
``leaderless_hot``
    the same but with every clock already saturated (isolates the
    token-checking machinery, Lemma 3.7's ``C_det``);
``all_leaders``
    every agent a freshly created leader — the elimination stress test;
``half_leaders``
    every second agent a leader;
``corrupted_safe``
    a safe configuration with a handful of agents overwritten at random —
    the transient-fault recovery scenario;
``invalid_tokens``
    a safe configuration sprinkled with off-trajectory tokens;
``stale_signals``
    a leaderless configuration in which resetting signals with maximal TTL
    and bullet-absence signals survive from a previous incarnation — the
    machinery must flush them before it can detect anything.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Dict, List

from repro.core.configuration import Configuration
from repro.core.errors import InvalidParameterError
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource, ensure_source
from repro.topology.graph import Population
from repro.protocols.ppl import (
    MODE_CONSTRUCT,
    PPLParams,
    PPLState,
    adversarial_configuration,
    all_leaders_configuration,
    configuration_with_invalid_tokens,
    corrupted_safe_configuration,
    leaderless_configuration,
    many_leaders_configuration,
)

#: Signature shared by every adversary: (n, params, rng) -> Configuration.
Adversary = Callable[[int, PPLParams, RandomSource], Configuration]


def uniform(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """Independently uniform states — the standard adversary."""
    return adversarial_configuration(n, params, rng)


def leaderless_trap(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """Leaderless, self-consistent, cold clocks: the slowest detection scenario."""
    del rng  # deterministic by construction
    return leaderless_configuration(n, params, detection_mode=False)


def leaderless_hot(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """Leaderless with saturated clocks: detection machinery active from step one."""
    del rng
    return leaderless_configuration(n, params, detection_mode=True)


def all_leaders(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """Every agent is a leader."""
    del rng
    return all_leaders_configuration(n, params)


def half_leaders(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """Roughly every second agent is a leader, at random positions."""
    return many_leaders_configuration(n, params, leaders=max(1, n // 2), rng=rng)


def corrupted_safe(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """A converged population hit by transient faults at a quarter of the agents."""
    return corrupted_safe_configuration(n, params, corruptions=max(1, n // 4), rng=rng)


def invalid_tokens(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """A safe-looking configuration with off-trajectory tokens planted on it."""
    return configuration_with_invalid_tokens(n, params, rng=rng)


def stale_signals(n: int, params: PPLParams, rng: RandomSource) -> Configuration:
    """Leaderless but full of leftover resetting and bullet-absence signals."""
    configuration = leaderless_configuration(n, params, detection_mode=False)
    states: List[PPLState] = configuration.states()
    for agent, state in enumerate(states):
        states[agent] = state._replace(
            mode=MODE_CONSTRUCT,
            signal_r=params.kappa_max if agent % 3 == 0 else rng.randint(0, params.kappa_max),
            signal_b=1 if agent % 2 == 0 else 0,
            bullet=rng.randint(0, 2),
        )
    return Configuration(states)


# ---------------------------------------------------------------------- #
# Protocol-generic, topology-aware families
# ---------------------------------------------------------------------- #
def _state_with_leader_flag(protocol: Protocol, rng: RandomSource,
                            want_leader: bool):
    """A random state whose leader output matches ``want_leader``.

    Bounded rejection sampling over ``protocol.random_state``: every
    registered protocol's state space contains both outputs with constant
    probability under its random-state distribution, so the bound exists
    only to turn a pathological custom protocol into a loud error instead
    of a hang.
    """
    for _ in range(256):
        state = protocol.random_state(rng)
        if protocol.is_leader(state) == want_leader:
            return state
    raise InvalidParameterError(
        f"protocol {protocol.name!r}: could not draw a random state with "
        f"is_leader={want_leader} in 256 attempts"
    )


def packed_leader_row(protocol: Protocol, n: int, rng: RandomSource,
                      population: Population) -> Configuration:
    """Torus worst case: every leader packed into one grid row (row 0).

    On a 2D torus the elimination dynamics must drain an entire row of
    colliding leaders through its ring of columns — the per-topology
    adversarial start the PR-3 topology work left open.  On populations
    without grid coordinates the "row" degrades to the first
    ``max(1, isqrt(n))`` agents: a contiguous packed run of leaders, the
    analogous worst case on a ring.

    Per-agent states come from per-index child streams
    (``rng.spawn(f"agent-{i}")``), so the configuration is a pure function
    of the seed and the agent index — independent of iteration order, and
    stable when the topology (not the size) changes.
    """
    coordinates = getattr(population, "coordinates", None)
    if coordinates is not None:
        in_row = [coordinates(agent)[0] == 0 for agent in range(n)]
    else:
        span = max(1, isqrt(n))
        in_row = [agent < span for agent in range(n)]
    states = [
        _state_with_leader_flag(protocol, rng.spawn(f"agent-{agent}"),
                                want_leader)
        for agent, want_leader in enumerate(in_row)
    ]
    return Configuration(states)


#: Registry used by the experiment harness and the failure-injection tests.
ADVERSARIES: Dict[str, Adversary] = {
    "uniform": uniform,
    "leaderless_trap": leaderless_trap,
    "leaderless_hot": leaderless_hot,
    "all_leaders": all_leaders,
    "half_leaders": half_leaders,
    "corrupted_safe": corrupted_safe,
    "invalid_tokens": invalid_tokens,
    "stale_signals": stale_signals,
}


def adversary_by_name(name: str) -> Adversary:
    """Look up an adversary; raises :class:`InvalidParameterError` for unknown names."""
    try:
        return ADVERSARIES[name]
    except KeyError as exc:
        known = ", ".join(sorted(ADVERSARIES))
        raise InvalidParameterError(f"unknown adversary {name!r}; known: {known}") from exc


def build(name: str, n: int, params: PPLParams,
          rng: "RandomSource | int | None" = None) -> Configuration:
    """Build the named adversarial configuration."""
    return adversary_by_name(name)(n, params, ensure_source(rng))
