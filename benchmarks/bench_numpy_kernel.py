"""Benchmark — the numpy-vectorized engine vs the batched and step tiers.

Measures steady-state steps/second of all three engines on the executable
constant-state baselines (Fischer-Jiang's 24-state protocol, the Angluin
mod-k detector) across the three benchmark topologies (directed ring,
complete graph, torus) at n in {1024, 8192, 65536} — the perf trajectory of
the ROADMAP's "as fast as the hardware allows" goal.  Every measurement
doubles as a cross-check: the engines run from the same seed and their final
configurations, metrics, and leader counts must agree exactly.

Two entry points:

* ``PYTHONPATH=src python benchmarks/bench_numpy_kernel.py`` runs the full
  grid and (re)writes the committed ``BENCH_engines.json`` at the repo root.
* ``PYTHONPATH=src python -m pytest benchmarks/bench_numpy_kernel.py`` runs
  the acceptance gates only: the >= 3x numpy-vs-batched ratio at n=8192 on
  the constant-state baselines, and the cheap n=4096 CI smoke gate.

Timing is best-of-``REPEATS`` per engine, so a background scheduler blip
degrades one repeat, not the recorded rate.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.core.configuration import random_configuration
from repro.core.encoding import StateEncoder
from repro.core.fast_simulator import (
    BatchedSimulation,
    NumpySimulation,
    numpy_available,
)
from repro.core.rng import RandomSource
from repro.core.simulator import Simulation
from repro.experiments.reporting import format_table
from repro.protocols.baselines.angluin_modk import AngluinModKProtocol
from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol
from repro.topology.complete import CompleteGraph
from repro.topology.ring import DirectedRing
from repro.topology.torus import Torus2D

SEED = 20230717
REPEATS = 3
#: Per-engine timed interaction counts: enough for a steady-state rate at
#: each tier's speed without the slow tiers dominating wall time.
STEPS = {"step": 150_000, "batched": 600_000, "numpy": 1_500_000}
CROSS_CHECK_STEPS = 120_000

_ENGINES = {
    "step": lambda protocol, population, initial, encoder, seed:
        Simulation(protocol, population, initial, rng=seed),
    "batched": lambda protocol, population, initial, encoder, seed:
        BatchedSimulation(protocol, population, initial, rng=seed),
    "numpy": lambda protocol, population, initial, encoder, seed:
        NumpySimulation(protocol, population, initial, rng=seed,
                        encoder=encoder),
}


def _topologies(n: int):
    """The benchmark topologies at scale ``n`` (torus needs a w*h split)."""
    splits = {1024: (32, 32), 4096: (64, 64), 8192: (128, 64),
              65536: (256, 256)}
    yield "directed-ring", DirectedRing(n)
    yield "complete", CompleteGraph(n)
    if n in splits:
        width, height = splits[n]
        yield "torus", Torus2D(width, height)


def _cross_check(protocol, population, initial, encoder) -> None:
    """Same seed, all tiers: final states and metrics must be identical."""
    runs = {}
    for name, build in _ENGINES.items():
        simulation = build(protocol, population, initial, encoder, SEED + 1)
        simulation.run(CROSS_CHECK_STEPS)
        runs[name] = simulation
    reference = runs["step"]
    for name in ("batched", "numpy"):
        assert runs[name].states() == reference.states(), f"{name} diverged"
        assert runs[name].metrics == reference.metrics, f"{name} metrics diverged"
        assert runs[name].leader_count() == reference.leader_count()


def measure_engines(protocol, population,
                    engines=("step", "batched", "numpy"),
                    cross_check: bool = True) -> Dict[str, float]:
    """Best-of-``REPEATS`` steps/second per engine at one grid point."""
    initial = random_configuration(protocol, population.size, RandomSource(SEED))
    encoder = StateEncoder.build(protocol, initial.states())
    if cross_check:
        _cross_check(protocol, population, initial, encoder)
    rates: Dict[str, float] = {}
    for name in engines:
        steps = STEPS[name]
        best = 0.0
        for _ in range(REPEATS):
            simulation = _ENGINES[name](protocol, population, initial,
                                        encoder, SEED + 1)
            started = time.perf_counter()
            simulation.run(steps)
            best = max(best, steps / (time.perf_counter() - started))
        rates[name] = best
    return rates


def _grid_cases(sizes=(1024, 8192, 65536)):
    for n in sizes:
        for topology_name, population in _topologies(n):
            yield "fischer-jiang", FischerJiangProtocol(), topology_name, population
    # The Angluin detector needs n not divisible by k=2; one ring column at
    # the acceptance size covers the second constant-state baseline.
    yield "angluin-modk", AngluinModKProtocol(2), "directed-ring", DirectedRing(8193)


def run_grid(sizes=(1024, 8192, 65536)):
    """The full benchmark grid as JSON-ready records."""
    records = []
    for protocol_name, protocol, topology_name, population in _grid_cases(sizes):
        rates = measure_engines(protocol, population)
        records.append({
            "protocol": protocol_name,
            "topology": topology_name,
            "n": population.size,
            "steps_per_second": {name: round(rate) for name, rate in rates.items()},
            "speedup_numpy_vs_batched": round(rates["numpy"] / rates["batched"], 2),
            "speedup_numpy_vs_step": round(rates["numpy"] / rates["step"], 2),
        })
        print(f"  measured {protocol_name} on {topology_name} n={population.size}")
    return records


def render_grid(records) -> str:
    return format_table(
        headers=["protocol", "topology", "n", "step/s (step)",
                 "step/s (batched)", "step/s (numpy)", "numpy/batched",
                 "numpy/step"],
        rows=[(record["protocol"], record["topology"], record["n"],
               f"{record['steps_per_second']['step']:,}",
               f"{record['steps_per_second']['batched']:,}",
               f"{record['steps_per_second']['numpy']:,}",
               f"{record['speedup_numpy_vs_batched']:.2f}x",
               f"{record['speedup_numpy_vs_step']:.2f}x")
              for record in records],
        title="engine tiers: steps/second (best of "
              f"{REPEATS}, seed {SEED})",
    )


def write_report(records, path: Optional[Path] = None) -> Path:
    path = path or Path(__file__).resolve().parent.parent / "BENCH_engines.json"
    payload = {
        "generated_by": "benchmarks/bench_numpy_kernel.py",
        "engines": sorted(STEPS),
        "timed_steps": STEPS,
        "repeats": REPEATS,
        "seed": SEED,
        "results": records,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------- #
# Acceptance gates (pytest entry points)
# ---------------------------------------------------------------------- #
needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy engine not installed")


@needs_numpy
def test_numpy_engine_speedup_gate_at_n8192():
    """The headline acceptance: >= 3x the batched tier at n=8192 on the
    constant-state baselines (best topology; every topology is reported)."""
    cases = [
        ("fischer-jiang", FischerJiangProtocol(), 8192),
        ("angluin-modk", AngluinModKProtocol(2), 8193),
    ]
    rows = []
    for name, protocol, n in cases:
        ratios = {}
        for topology_name, population in _topologies(n):
            rates = measure_engines(protocol, population,
                                    engines=("batched", "numpy"))
            ratios[topology_name] = rates["numpy"] / rates["batched"]
        rows.append((name, {k: f"{v:.2f}x" for k, v in ratios.items()}))
        best = max(ratios.values())
        assert best >= 3.0, (
            f"numpy engine must be >= 3x the batched tier at n~8192 on "
            f"{name}; measured {ratios}"
        )
    print()
    for name, ratios in rows:
        print(f"n~8192 numpy/batched [{name}]: {ratios}")


@needs_numpy
def test_numpy_engine_smoke_gate_at_n4096():
    """CI smoke gate: the numpy tier must beat the batched tier at n=4096 on
    fischer-jiang.  Deliberately soft (1x) so a loaded shared runner cannot
    flake the build on a timing ratio; the 3x assertion above carries the
    real requirement."""
    rates = measure_engines(FischerJiangProtocol(), DirectedRing(4096),
                            engines=("batched", "numpy"))
    ratio = rates["numpy"] / rates["batched"]
    print(f"\nn=4096 smoke gate: batched {rates['batched']:,.0f} steps/s, "
          f"numpy {rates['numpy']:,.0f} steps/s ({ratio:.2f}x)")
    assert ratio >= 1.0, (
        f"numpy engine slower than the batched tier at n=4096 ({ratio:.2f}x)"
    )


if __name__ == "__main__":
    if not numpy_available():
        raise SystemExit("numpy is required to run the engine benchmark grid")
    print("running the engine benchmark grid (this takes a few minutes)...")
    grid = run_grid()
    print()
    print(render_grid(grid))
    target = write_report(grid)
    print(f"\nwrote {target}")
