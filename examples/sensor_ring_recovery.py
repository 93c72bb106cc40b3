#!/usr/bin/env python3
"""Scenario: a ring of cheap sensors recovering from faults without intervention.

The population-protocol model was introduced for exactly this setting: large
collections of passively mobile, resource-starved devices (the paper's
introduction motivates self-stabilization by the unreliability of such
nodes).  This example tells that story end to end on a ring of ``n`` sensors
that elect a coordinator (the leader) with ``P_PL``:

* **Phase 1 — normal operation.**  The ring converges from an arbitrary boot
  state and keeps a unique coordinator.
* **Phase 2 — transient faults.**  A burst of memory corruption hits a
  quarter of the sensors (their entire state is randomised); the ring
  re-converges on its own.
* **Phase 3 — coordinator loss.**  The adversary deletes every leader bit in
  the population (the worst case for leader election: somebody must *notice*
  that no coordinator exists before a new one can be created).  The
  leader-absence detection machinery (clocks, resetting signals, token
  checks) creates a new coordinator and the ring settles again.

Run:  python examples/sensor_ring_recovery.py [n]
"""

from __future__ import annotations

import sys

from repro import DirectedRing, PPLProtocol, Simulation
from repro.core.rng import RandomSource
from repro.protocols.ppl import (
    adversarial_configuration,
    is_safe,
    leader_count,
    random_state,
)


def run_until_safe(simulation: Simulation, params, budget: int, label: str) -> int:
    result = simulation.run_until(
        lambda states: is_safe(states, params),
        max_steps=budget,
        check_interval=len(simulation.states()),
    )
    status = "recovered" if result.satisfied else "DID NOT RECOVER"
    print(f"  {label}: {status} after {result.steps} steps "
          f"(leaders now: {leader_count(simulation.states())})")
    return result.steps


def main(n: int = 24, seed: int = 7) -> int:
    protocol = PPLProtocol.for_population(n, kappa_factor=8)
    params = protocol.params
    ring = DirectedRing(n)
    rng = RandomSource(seed)
    budget = 6_000_000

    print(f"sensor ring with {n} nodes, protocol {protocol.name}")

    # Phase 1 — arbitrary boot state.
    simulation = Simulation(protocol, ring, adversarial_configuration(n, params, rng=seed),
                            rng=seed + 1)
    print("phase 1: boot from an arbitrary state")
    run_until_safe(simulation, params, budget, "initial convergence")

    # Phase 2 — transient memory corruption at a quarter of the sensors.
    print("phase 2: transient faults corrupt 25% of the sensors")
    states = simulation.states()
    victims = list(range(n))
    rng.shuffle(victims)
    for victim in victims[: n // 4]:
        states[victim] = random_state(rng, params)
    print(f"  corrupted sensors: {sorted(victims[: n // 4])}")
    run_until_safe(simulation, params, budget, "fault recovery")

    # Phase 3 — every coordinator disappears at once.
    print("phase 3: the coordinator (and any stray leader bits) vanish")
    states = simulation.states()
    for agent, state in enumerate(states):
        states[agent] = state._replace(leader=0)
    print(f"  leaders after the wipe: {leader_count(simulation.states())}")
    run_until_safe(simulation, params, budget, "coordinator re-election")

    safe = is_safe(simulation.states(), params)
    print(f"final configuration safe: {safe}")
    return 0 if safe else 1


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    raise SystemExit(main(size))
