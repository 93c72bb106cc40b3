"""End-to-end pipeline: un-oriented anonymous ring  →  oriented ring  →  unique leader.

Section 5's point is that the directed-ring assumption of ``P_PL`` costs
nothing: a constant-state, ``O(n^2 log n)``-step self-stabilizing ring
orientation exists, so leader election on *undirected* rings is solved by
layering the protocols.  This module provides that layering as an explicit
three-phase pipeline used by the examples and the orientation experiment:

1. **Coloring phase** — run the two-hop-coloring substrate until the coloring
   is proper and the neighbor memories are populated.
2. **Orientation phase** — run ``P_OR`` on the colored ring until every agent
   points the same way (Definition 5.1).
3. **Election phase** — interpret the common direction as "clockwise", build
   the induced directed ring, and run ``P_PL`` to a safe configuration.

A formally composed single protocol (product state space, fair interleaving)
would behave the same but adds nothing to the reproduction; the phase
boundaries below are simulation-level, which is stated in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError
from repro.core.fast_simulator import BatchedSimulation
from repro.core.simulator import Simulation
from repro.protocols.orientation.por import (
    PORProtocol,
    PORState,
    adversarial_oriented_configuration,
    is_oriented,
    orientation_direction,
)
from repro.protocols.orientation.two_hop_coloring import (
    TwoHopColoringProtocol,
    coloring_is_two_hop_proper,
    memories_match_neighbors,
    random_coloring_configuration,
)
from repro.protocols.ppl import PPLProtocol, adversarial_configuration
from repro.topology.ring import DirectedRing, UndirectedRing


@dataclass
class PipelineResult:
    """Step counts and outcomes of the three pipeline phases."""

    coloring_steps: int
    orientation_steps: int
    election_steps: int
    orientation: str
    leader_index: Optional[int]

    @property
    def total_steps(self) -> int:
        """Steps summed over all three phases."""
        return self.coloring_steps + self.orientation_steps + self.election_steps


class OrientedRingPipeline:
    """Run coloring, orientation and leader election on an anonymous undirected ring."""

    def __init__(self, n: int, num_colors: int = 5, kappa_factor: int = 4,
                 seed: int = 0) -> None:
        self.n = n
        self.num_colors = num_colors
        self.kappa_factor = kappa_factor
        self.seed = seed
        self.undirected_ring = UndirectedRing(n)
        self.directed_ring = DirectedRing(n)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def run_coloring_phase(self, max_steps: int) -> "tuple[Configuration, int]":
        """Phase 1: converge the two-hop coloring from a random start."""
        protocol = TwoHopColoringProtocol(self.num_colors, rng=self.seed + 11)
        start = random_coloring_configuration(self.n, protocol, rng=self.seed + 12)
        simulation = Simulation(protocol, self.undirected_ring, start, rng=self.seed + 13)
        result = simulation.run_until(
            lambda states: coloring_is_two_hop_proper(states)
            and memories_match_neighbors(states),
            max_steps=max_steps,
            check_interval=max(1, self.n // 2),
        )
        result.require_satisfied()
        return result.configuration, result.steps

    def run_orientation_phase(self, coloring: Optional[Configuration],
                              max_steps: int) -> "tuple[Configuration, int]":
        """Phase 2: converge ``P_OR`` on the colored ring (adversarial ``dir``/``strong``)."""
        protocol = PORProtocol(self.num_colors)
        if coloring is None:
            start = adversarial_oriented_configuration(
                self.undirected_ring, self.num_colors, rng=self.seed + 21
            )
        else:
            start = self._orientation_start_from_coloring(coloring)
        simulation = Simulation(protocol, self.undirected_ring, start, rng=self.seed + 22)
        result = simulation.run_until(
            is_oriented, max_steps=max_steps, check_interval=max(1, self.n // 2)
        )
        result.require_satisfied()
        return result.configuration, result.steps

    def run_election_phase(self, max_steps: int) -> "tuple[Configuration, int]":
        """Phase 3: run ``P_PL`` on the induced directed ring from an adversarial start.

        ``P_PL`` runs on the table engine (bit-identical to the step loop for
        the same seed); the first two phases keep the step loop, because
        the coloring protocol draws its own random numbers.
        """
        protocol = PPLProtocol.for_population(self.n, kappa_factor=self.kappa_factor)
        start = adversarial_configuration(self.n, protocol.params, rng=self.seed + 31)
        simulation = BatchedSimulation(protocol, self.directed_ring, start, rng=self.seed + 32)
        result = simulation.run_until(
            protocol.is_stable,
            max_steps=max_steps,
            check_interval=max(16, self.n),
        )
        result.require_satisfied()
        return result.configuration, result.steps

    def run(self, max_steps_per_phase: int) -> PipelineResult:
        """Run all three phases, raising :class:`ConvergenceError` on any failure."""
        coloring, coloring_steps = self.run_coloring_phase(max_steps_per_phase)
        oriented, orientation_steps = self.run_orientation_phase(coloring, max_steps_per_phase)
        elected, election_steps = self.run_election_phase(max_steps_per_phase)
        leaders = [index for index, state in enumerate(elected) if state.leader == 1]
        if len(leaders) != 1:
            raise ConvergenceError("election phase ended without a unique leader",
                                   election_steps)
        return PipelineResult(
            coloring_steps=coloring_steps,
            orientation_steps=orientation_steps,
            election_steps=election_steps,
            orientation=orientation_direction(oriented.states()),
            leader_index=leaders[0],
        )

    # ------------------------------------------------------------------ #
    # Glue
    # ------------------------------------------------------------------ #
    def _orientation_start_from_coloring(self, coloring: Configuration) -> Configuration:
        """Build ``P_OR`` states from converged coloring states (adversarial pointers)."""
        from repro.core.rng import RandomSource

        source = RandomSource(self.seed + 23)
        n = self.n
        states = []
        for agent in range(n):
            color_state = coloring[agent]
            left_color = coloring[(agent - 1) % n].color
            right_color = coloring[(agent + 1) % n].color
            states.append(
                PORState(
                    color=color_state.color,
                    c1=left_color,
                    c2=right_color,
                    dir=left_color if source.coin() else right_color,
                    strong=source.randint(0, 1),
                )
            )
        return Configuration(states)
