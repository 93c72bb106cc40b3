"""The snapshot()/restore() state-capture contract, across both engines.

The phased scenario runtime treats ``run_until`` as a resumable *segment*
primitive: capture a simulation mid-run, restore it later (possibly after
running something else on the same object), and the continuation must be
bit-identical to an uninterrupted run — same states, same step counters,
same per-agent interaction counts, same downstream random draws.  This
suite pins that contract for every engine tier on every core topology.
"""

from __future__ import annotations

import copy

import pytest

from repro.api import ExperimentConfig, get_spec
from repro.core.rng import RandomSource
from repro.topology.registry import build_topology

TOPOLOGIES = [
    ("directed-ring", {}),
    ("undirected-ring", {}),
    ("complete", {}),
    ("torus", {"width": 3, "height": 3}),
    ("random-regular", {"degree": 4}),
]

ENGINES = ["step", "batched"]

N = 9
PREFIX_STEPS = 137
SUFFIX_STEPS = 411


def _build(engine: str, topology: str, params: dict, seed: int = 404):
    """One angluin-modk simulation on the requested engine and topology."""
    spec = get_spec("angluin-modk")
    config = ExperimentConfig()
    protocol = spec.build_protocol(N, config)
    population = build_topology(topology, N, **params)
    rng = RandomSource(seed)
    initial = spec.build_configuration(
        "adversarial", protocol, N, rng.spawn("configuration"),
        population=population)
    return spec.build_simulation(protocol, population, initial,
                                 rng.spawn("scheduler"), engine=engine)


def _fingerprint(simulation):
    """Everything the contract promises to preserve."""
    metrics = simulation.metrics
    return (
        simulation.states(),
        simulation.steps,
        metrics.steps,
        metrics.effective_steps,
        dict(metrics.interactions_per_agent),
        simulation.leader_count(),
    )


@pytest.mark.parametrize("topology,params", TOPOLOGIES,
                         ids=[name for name, _ in TOPOLOGIES])
@pytest.mark.parametrize("engine", ENGINES)
def test_restore_then_run_equals_uninterrupted_run(engine, topology, params):
    reference = _build(engine, topology, params)
    reference.run(PREFIX_STEPS)
    reference.run(SUFFIX_STEPS)
    expected = _fingerprint(reference)

    resumed = _build(engine, topology, params)
    resumed.run(PREFIX_STEPS)
    saved = resumed.snapshot()
    # Disturb the object: run well past the capture point, then rewind.
    resumed.run(2 * SUFFIX_STEPS + 97)
    resumed.restore(saved)
    assert _fingerprint(resumed)[1] == PREFIX_STEPS
    resumed.run(SUFFIX_STEPS)
    assert _fingerprint(resumed) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_is_a_value_not_a_view(engine):
    """Mutating the simulation after snapshot() must not corrupt the capture."""
    simulation = _build(engine, "directed-ring", {})
    simulation.run(PREFIX_STEPS)
    saved = simulation.snapshot()
    # states() hands out live references on the step engine; deep-copy the
    # expectation so only the snapshot is under test.
    expected_states = copy.deepcopy(simulation.states())
    simulation.run(500)
    assert simulation.states() != expected_states or simulation.steps != PREFIX_STEPS
    simulation.restore(saved)
    assert simulation.states() == expected_states
    assert simulation.steps == PREFIX_STEPS


@pytest.mark.parametrize("engine", ENGINES)
def test_restore_resumes_the_random_stream_exactly(engine):
    """Two restores from one snapshot replay identical scheduler draws."""
    simulation = _build(engine, "complete", {})
    simulation.run(PREFIX_STEPS)
    saved = simulation.snapshot()
    simulation.run(SUFFIX_STEPS)
    first = _fingerprint(simulation)
    simulation.restore(saved)
    simulation.run(SUFFIX_STEPS)
    assert _fingerprint(simulation) == first


@pytest.mark.parametrize("topology,params", TOPOLOGIES,
                         ids=[name for name, _ in TOPOLOGIES])
def test_cross_engine_identity_survives_snapshot_boundaries(topology, params):
    """Interrupting different engines at the same point keeps them identical."""
    fingerprints = []
    for engine in ENGINES:
        simulation = _build(engine, topology, params)
        simulation.run(PREFIX_STEPS)
        simulation.restore(simulation.snapshot())
        simulation.run(SUFFIX_STEPS)
        fingerprints.append(_fingerprint(simulation))
    assert all(entry == fingerprints[0] for entry in fingerprints)


def test_run_until_resumes_across_snapshot_boundary():
    """run_until after restore continues the segment, counters intact."""
    spec = get_spec("angluin-modk")
    simulation = _build("step", "directed-ring", {})
    protocol = simulation.protocol
    predicate = spec.build_stop_predicate(protocol, simulation.population)

    uninterrupted = _build("step", "directed-ring", {})
    run = uninterrupted.run_until(predicate, max_steps=200_000, check_interval=16)
    assert run.satisfied

    simulation.run(64)
    saved = simulation.snapshot()
    simulation.run(10_000)
    simulation.restore(saved)
    resumed = simulation.run_until(predicate, max_steps=200_000 - 64,
                                   check_interval=16)
    assert resumed.satisfied
    assert 64 + resumed.steps == run.steps
    assert simulation.states() == uninterrupted.states()
