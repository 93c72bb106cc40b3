"""Benchmark — batched table-driven engine vs the step-by-step loop.

The batched engine (:mod:`repro.core.fast_simulator`) codes states as
integers and fills a transition table lazily, replaying scheduler draws in
blocks: one ``protocol.transition`` Python call (plus dataclass copies,
equality checks, metrics dict updates, and the observer loop) per
interaction becomes one dict lookup for every pair after its first
occurrence.  This benchmark measures the resulting steps/second on the
constant-state baselines and asserts the engine-equivalence contract while
it is at it.

Protocol choice: the Chen-Chen baseline named by Table 1 is *analytic* in
this repository (its super-exponential convergence cannot be simulated, see
``repro.protocols.baselines.chen_chen``), so the constant-state protocols
that actually execute — Fischer-Jiang's 24-state protocol and the
Angluin-style mod-k detector — stand in for it here.

Run directly (CI smoke gate included)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batched_step.py -q
"""

from __future__ import annotations

import time

from repro.core.configuration import random_configuration
from repro.core.fast_simulator import BatchedSimulation
from repro.core.rng import RandomSource
from repro.core.simulator import Simulation
from repro.experiments.reporting import format_table
from repro.protocols.baselines.angluin_modk import AngluinModKProtocol
from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol
from repro.topology.ring import DirectedRing

#: Interactions per timed run.  A convergence trial at n~1024 executes
#: millions of interactions (the paper's bound is Theta(n^2 log n)), so
#: steady-state steps/sec is the number that matters; the table fills
#: inside the timed run.
STEPS = 300_000

SEED = 20230717


def _measure(protocol, n: int, steps: int = STEPS):
    """Steady-state throughput of both engines at size ``n``.

    Returns ``(step_rate, batched_rate, speedup)``.  Both
    engines run from the same initial configuration and scheduler seed, so
    their final configurations must be identical — asserted below, making
    every benchmark run a cross-check too.
    """
    ring = DirectedRing(n)
    initial = random_configuration(protocol, n, RandomSource(SEED))

    step_sim = Simulation(protocol, ring, initial, rng=SEED + 1)
    started = time.perf_counter()
    step_sim.run(steps)
    step_rate = steps / (time.perf_counter() - started)

    batched = BatchedSimulation(protocol, ring, initial, rng=SEED + 1)
    started = time.perf_counter()
    batched.run(steps)
    batched_rate = steps / (time.perf_counter() - started)

    assert batched.states() == step_sim.states(), "engines diverged"
    assert batched.metrics == step_sim.metrics
    return step_rate, batched_rate, batched_rate / step_rate


def test_batched_engine_speedup_at_n1024():
    """The headline number: >= 5x steps/sec on a fully-encoded baseline at n=1024."""
    cases = [
        ("fischer-jiang", FischerJiangProtocol(), 1024),
        ("angluin-modk", AngluinModKProtocol(2), 1025),  # needs n not divisible by k
    ]
    rows = []
    speedups = {}
    for name, protocol, n in cases:
        step_rate, batched_rate, speedup = _measure(protocol, n)
        speedups[name] = speedup
        rows.append((name, n, f"{step_rate:,.0f}", f"{batched_rate:,.0f}",
                     f"{speedup:.1f}x"))
    print()
    print(format_table(
        headers=["protocol", "n", "step (steps/s)", "batched (steps/s)",
                 "speedup"],
        rows=rows,
        title=f"batched engine vs step loop ({STEPS:,} interactions/run)",
    ))
    best = max(speedups.values())
    assert best >= 5.0, (
        f"batched engine must be >= 5x the step loop on at least one "
        f"fully-encoded baseline at n~1024; measured {speedups}"
    )


def test_batched_engine_smoke_gate_at_n512():
    """CI smoke gate: the batched path must never be slower than the step loop.

    n=512 on the executable stand-in for the (analytic) chen-chen baseline;
    kept cheap and with a deliberately soft bound so a loaded CI runner
    cannot flake it — the 5x assertion above carries the real requirement.
    """
    step_rate, batched_rate, speedup = _measure(FischerJiangProtocol(), 512)
    print(f"\nn=512 smoke gate: step {step_rate:,.0f} steps/s, "
          f"batched {batched_rate:,.0f} steps/s ({speedup:.1f}x)")
    assert speedup >= 1.0, (
        f"batched engine slower than the step loop at n=512 ({speedup:.2f}x)"
    )
