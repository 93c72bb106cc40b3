"""The table engine reads a stop predicate's guard; the step loop does not.

:meth:`BatchedSimulation.run_until` evaluates a predicate's guard on the
coded table first, and decodes the agents for the predicate only where the
guard holds.  A guard is a necessary condition of its predicate, so both
engines must stop at the same step: checked here for every simulated spec
on every topology it supports, at check intervals 1 and 128, from
leaderless starts, across a snapshot and restore mid-run, and with
Fischer-Jiang's oracle.  The guards' own soundness is checked in
``tests/ppl/test_safe_guard.py`` and ``tests/baselines/test_one_leader_guard.py``.
"""

from __future__ import annotations

import functools

import pytest
from test_fast_simulator import SPEC_TOPOLOGY_GRID, _grid_size

from repro.api import ExperimentConfig, get_spec
from repro.core.configuration import Configuration
from repro.core.fast_simulator import one_leader
from repro.core.rng import RandomSource
from repro.protocols.baselines.fischer_jiang import FischerJiangState
from repro.protocols.ppl.stages import StageTable

ENGINES = ("step", "batched")


def _ingredients(name: str, topology: str = "directed-ring", family=None, seed: int = 3,
                 n=None, kappa_factor: int = 4):
    spec = get_spec(name)
    config = ExperimentConfig(topology=topology, kappa_factor=kappa_factor)
    n = n if n is not None else _grid_size(spec, topology)
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    initial = spec.build_configuration(family or spec.default_family, protocol, n,
                                       RandomSource(seed), population=population)
    return spec, protocol, population, initial


def _run(spec, protocol, population, initial, engine: str, predicate=None,
         check_interval: int = 1, max_steps: int = 20_000, seed: int = 7):
    simulation = spec.build_simulation(protocol, population, initial,
                                       RandomSource(seed), engine=engine)
    predicate = predicate or spec.build_stop_predicate(protocol, population)
    return simulation.run_until(predicate, max_steps=max_steps,
                                check_interval=check_interval)


def _assert_same_stop(spec, protocol, population, initial, **kwargs):
    step, batched = (_run(spec, protocol, population, initial, engine, **kwargs)
                     for engine in ENGINES)
    assert (batched.satisfied, batched.steps) == (step.satisfied, step.steps)
    assert batched.configuration.states() == step.configuration.states()
    return step


@pytest.mark.parametrize("check_interval", [1, 128])
@pytest.mark.parametrize("name,topology", SPEC_TOPOLOGY_GRID)
def test_both_engines_stop_at_the_same_step(name, topology, check_interval):
    for seed in (3, 4):
        _assert_same_stop(*_ingredients(name, topology, seed=seed),
                          check_interval=check_interval)


@pytest.mark.parametrize("check_interval", [1, 128])
@pytest.mark.parametrize("name,family,kappa_factor", [
    ("ppl", "leaderless-trap", 4),
    ("ppl", "leaderless-hot", 32),
    ("ppl", "all-leaders", 4),
])
def test_leaderless_and_crowded_starts_stop_at_the_same_step(name, family, kappa_factor,
                                                            check_interval):
    """Starts where almost every check sees a leader count other than one."""
    result = _assert_same_stop(
        *_ingredients(name, family=family, n=16, kappa_factor=kappa_factor),
        check_interval=check_interval, max_steps=200_000)
    assert result.satisfied


def _all_followers(n: int) -> Configuration:
    return Configuration([FischerJiangState.follower() for _ in range(n)])


@pytest.mark.parametrize("check_interval", [1, 7, 128])
@pytest.mark.parametrize("topology", ["directed-ring", "complete"])
def test_the_oracle_creates_the_leader_the_guard_waits_for(topology, check_interval):
    """Fischer-Jiang from all followers: only the oracle's report, between
    blocks, makes a leader, and the table engine re-codes what it rewrote."""
    spec, protocol, population, _ = _ingredients("fischer-jiang", topology)
    result = _assert_same_stop(spec, protocol, population, _all_followers(population.size),
                               check_interval=check_interval)
    assert result.satisfied and result.steps >= population.size


@pytest.mark.parametrize("name,family", [("ppl", "leaderless-trap"),
                                         ("yokota2021", None),
                                         ("fischer-jiang", None)])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_run_restored_mid_way_stops_where_it_did(name, family, engine):
    spec, protocol, population, initial = _ingredients(name, family=family)
    predicate = spec.build_stop_predicate(protocol, population)
    simulation = spec.build_simulation(protocol, population, initial, RandomSource(5),
                                       engine=engine)
    simulation.run(5)
    saved = simulation.snapshot()
    first = simulation.run_until(predicate, max_steps=200_000, check_interval=1)
    simulation.restore(saved)
    again = simulation.run_until(predicate, max_steps=200_000, check_interval=1)
    assert first.satisfied and first.steps > 1
    assert (again.satisfied, again.steps) == (first.satisfied, first.steps)
    assert again.configuration.states() == first.configuration.states()
    reference = spec.build_simulation(protocol, population, initial, RandomSource(5),
                                      engine="step")
    reference.run(5)
    expected = reference.run_until(predicate, max_steps=200_000, check_interval=1)
    assert (first.satisfied, first.steps) == (expected.satisfied, expected.steps)


@pytest.mark.parametrize("name,family,guard", [
    ("ppl", "leaderless-trap", StageTable.may_be_safe),
    ("yokota2021", None, one_leader),
])
def test_a_wrapped_predicate_keeps_its_guard(name, family, guard):
    """A wrapper made with ``functools.wraps`` (as a tracer makes one)
    carries the guard, so the table engine calls it on fewer checks than it
    makes, while the step loop calls it on every check."""
    spec, protocol, population, initial = _ingredients(name, family=family, n=16)
    predicate = spec.build_stop_predicate(protocol, population)
    assert predicate.guard is guard
    calls = {engine: 0 for engine in ENGINES}
    runs = {}
    for engine in ENGINES:
        @functools.wraps(predicate)
        def counted(states, engine=engine):
            calls[engine] += 1
            return predicate(states)

        assert counted.guard is guard
        runs[engine] = _run(spec, protocol, population, initial, engine,
                            predicate=counted, max_steps=200_000)
    checks = runs["step"].steps + 1  # check_interval 1, from step 0
    assert runs["step"].satisfied
    assert runs["batched"].steps == runs["step"].steps
    assert calls["step"] == checks
    assert 1 <= calls["batched"] < checks // 2

