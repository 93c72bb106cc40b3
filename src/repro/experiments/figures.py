"""Experiments F1 and F2 — regenerate the paper's two figures.

Figure 1 illustrates the segment-ID embedding: a ring with a unique leader
whose segments carry IDs increasing by one clockwise (the first and last
segments being unconstrained).  We regenerate it by running the construction
phase from a single-leader, fully unconstructed configuration until the
configuration is perfect, then rendering the embedded IDs.

Figure 2 illustrates the zig-zag trajectory of a token across two adjacent
segments (length ``2*psi^2 - 2*psi + 1``, Definition 3.4).  We regenerate it
by driving one token with the deterministic interaction sequence of
Lemma 3.5, recording the token's position after every move, and checking the
trajectory's length and turning points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.scheduler import SequenceScheduler, token_round_trip
from repro.core.fast_simulator import BatchedSimulation
from repro.core.simulator import Simulation
from repro.api.config import ExperimentConfig
from repro.experiments.reporting import format_series
from repro.protocols.ppl import (
    PPLProtocol,
    is_perfect,
    leaderless_configuration,
    render_segment_ids,
    segment_id_sequence,
    single_leader_unconstructed,
)
from repro.topology.ring import DirectedRing


# ---------------------------------------------------------------------- #
# Figure 1 — segment-ID embedding
# ---------------------------------------------------------------------- #
@dataclass
class Figure1Result:
    """Outcome of the Figure-1 regeneration."""

    population_size: int
    steps_to_perfect: int
    perfect: bool
    segment_ids: List[int]
    rendering: str


def regenerate_figure1(n: int = 15, kappa_factor: int = 4, max_steps: int = 2_000_000,
                       seed: int = 7,
                       check_interval: Optional[int] = None) -> Figure1Result:
    """Run the construction phase until the configuration is perfect and render it.

    The run needs no per-interaction observer, so it uses the table engine
    (bit-identical to the step loop for the same seed).
    """
    protocol = PPLProtocol.for_population(n, kappa_factor=kappa_factor)
    params = protocol.params
    ring = DirectedRing(n)
    start = single_leader_unconstructed(n, params)
    simulation = BatchedSimulation(protocol, ring, start, rng=seed)
    run = simulation.run_until(
        lambda states: is_perfect(states, params),
        max_steps=max_steps,
        check_interval=check_interval if check_interval is not None else max(8, n),
    )
    states = simulation.states()
    return Figure1Result(
        population_size=n,
        steps_to_perfect=run.steps,
        perfect=run.satisfied,
        segment_ids=segment_id_sequence(states, params),
        rendering=render_segment_ids(states, params),
    )


def figure1_report(config: Optional[ExperimentConfig] = None) -> str:
    """Text report for several ring sizes (mirrors Figure 1 (a)/(b))."""
    config = config or ExperimentConfig()
    sections: List[str] = []
    for n in config.sizes:
        result = regenerate_figure1(n, kappa_factor=config.kappa_factor,
                                    max_steps=config.max_steps, seed=config.seed)
        sections.append(
            f"Figure 1 @ n={n}: perfect={result.perfect} after {result.steps_to_perfect} steps\n"
            f"{result.rendering}"
        )
    return "\n\n".join(sections)


# ---------------------------------------------------------------------- #
# Figure 2 — token trajectory
# ---------------------------------------------------------------------- #
@dataclass
class Figure2Result:
    """Outcome of the Figure-2 regeneration: the recorded token trajectory."""

    psi: int
    expected_moves: int
    observed_moves: int
    positions: List[int]
    turning_points: List[int]

    @property
    def matches_definition(self) -> bool:
        """True when the observed trajectory length equals ``2*psi^2 - 2*psi + 1``."""
        return self.observed_moves == self.expected_moves


def _token_positions(states, color: str) -> List[Tuple[int, tuple]]:
    """All (agent, token) pairs currently holding a token of the given color."""
    found = []
    for agent, state in enumerate(states):
        token = state.token_b if color == "B" else state.token_w
        if token is not None:
            found.append((agent, token))
    return found


def regenerate_figure2(psi: int = 4, seed: int = 11) -> Figure2Result:
    """Drive one black token through its full trajectory and record every move.

    The ring has ``n = 4*psi`` agents (so the two-segment window of interest
    is far from the leaderless wrap), no leader, every clock cold (so no agent
    interferes by creating leaders during the short driven sequence), and the
    deterministic schedule of Lemma 3.5 anchored at agent 0.
    """
    protocol = PPLProtocol(params=_params_for_psi(psi))
    params = protocol.params
    n = 4 * psi
    ring = DirectedRing(n)
    start = leaderless_configuration(n, params, detection_mode=False)
    schedule = token_round_trip(ring, segment_start=0, psi=psi)
    simulation = Simulation(protocol, ring, start,
                            scheduler=SequenceScheduler(schedule), rng=seed)

    # The driven schedule starts with e_0, whose first effect is the border
    # agent u_0 creating the token (and handing it one step right within the
    # same interaction), so the trajectory's origin is position 0.
    positions: List[int] = [0]
    moves = 0
    previous: Optional[int] = 0
    for _ in range(len(schedule)):
        simulation.step()
        holders = [agent for agent, _token in _token_positions(simulation.states(), "B")
                   if agent < 2 * psi]
        # The border keeps spawning follower tokens behind the one we follow;
        # the followed (oldest) token is always the rightmost black token in
        # the window because tokens never overtake each other (Alg. 3, l.14).
        holders = [max(holders)] if holders else []
        if not holders:
            if previous is not None:
                # The token vanished: on this driven schedule that happens
                # exactly when it makes its final move into the destination
                # u_{2*psi-1}, where lines 32-33 delete it within the same
                # interaction.  Count that final move and stop before the
                # border spawns a fresh token on the next sweep.
                moves += 1
                positions.append(2 * psi - 1)
                break
            continue
        holder = holders[0]
        if previous is None or holder != previous:
            if previous is not None:
                moves += 1
            positions.append(holder)
            previous = holder
    turning_points = [
        positions[i] for i in range(1, len(positions) - 1)
        if (positions[i] - positions[i - 1]) * (positions[i + 1] - positions[i]) < 0
    ]
    return Figure2Result(
        psi=psi,
        expected_moves=params.trajectory_length,
        observed_moves=moves,
        positions=positions,
        turning_points=turning_points,
    )


def figure2_report(psi: int = 4,
                   result: Optional[Figure2Result] = None) -> str:
    """Text report: the trajectory series and whether it matches Definition 3.4.

    Pass a pre-computed ``result`` to render it without re-running the
    simulation (the CLI does, to serve text and JSON from one run).
    """
    if result is None:
        result = regenerate_figure2(psi=psi)
    series = format_series(
        f"Figure 2 — black-token position along its trajectory (psi={psi})",
        list(enumerate(result.positions)),
    )
    verdict = (
        f"observed moves = {result.observed_moves}, "
        f"expected 2*psi^2 - 2*psi + 1 = {result.expected_moves}, "
        f"match = {result.matches_definition}"
    )
    return f"{series}\n{verdict}"


def _params_for_psi(psi: int):
    from repro.protocols.ppl import PPLParams

    return PPLParams(psi=psi, kappa_factor=4)
