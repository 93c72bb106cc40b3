"""``P_PL``'s stage tables against ``transition``, the step loop and their bound.

The table engine runs ``P_PL`` on :class:`~repro.protocols.ppl.stages.StageTable`:
three lazily filled tables over component codes.  Each interaction through
them must give exactly what :meth:`PPLProtocol.transition` gives — the two
states, whether anything changed, and the leader-count change — and whole
runs must stay bit-identical to the step loop while the tables are emptied
at their bound over and over.
"""

from __future__ import annotations

import json

import pytest
from test_pinned_behaviour import PAIRS, TRANSITION_DIGESTS

from repro.api import ExperimentConfig, get_spec
from repro.cli import main
from repro.core.errors import StateSpaceError
from repro.core.fast_simulator import BatchedSimulation
from repro.core.rng import RandomSource
from repro.core.scheduler import SequenceScheduler
from repro.core.simulator import Simulation
from repro.protocols.ppl import PPLParams, PPLProtocol, random_state, stages
from repro.protocols.ppl.stages import StageTable

#: Arc-stream length of the bounded-table replays.
STREAM_LENGTH = 20_000

#: The stage-table bound those replays patch in.
SMALL_BOUND = 4


def _one_interaction(table: StageTable, initiator, responder):
    """``(states after, effective, leader delta)`` of one interaction
    through ``table``."""
    table.code([initiator, responder])
    before = table.leaders
    counts = [0, 0]
    effective = table.apply([(0, 1)], counts)
    assert counts == [1, 1]
    return tuple(table.view()), effective, table.leaders - before


def _variants(initiator, responder, kappa_max: int):
    """The drawn pair, the same pair with the responder's leader flag
    flipped, then the same segments and wars with the responder's timers set
    to detect (clock saturated, no signal) and to construct: a segment stage
    keyed without the responder's leader flag or mode mixes them up."""
    yield initiator, responder
    yield initiator, responder._replace(leader=1 - responder.leader)
    quiet = initiator._replace(signal_r=0)
    yield quiet, responder._replace(clock=kappa_max, signal_r=0, hits=0)
    yield quiet, responder._replace(clock=0, signal_r=0, hits=0)


@pytest.mark.parametrize("psi,kappa_factor", sorted(TRANSITION_DIGESTS))
def test_one_interaction_through_the_stage_tables_is_transition(psi, kappa_factor):
    """The pinning test's seeded random pairs, through one shared table."""
    params = PPLParams(psi=psi, kappa_factor=kappa_factor)
    protocol = PPLProtocol(params)
    table = protocol.coded_table()
    rng = RandomSource(1_000 * psi + kappa_factor)
    detected = killed = 0
    for _ in range(PAIRS):
        drawn = random_state(rng, params), random_state(rng, params)
        for initiator, responder in _variants(*drawn, params.kappa_max):
            expected = protocol.transition(initiator, responder)
            states, effective, delta = _one_interaction(table, initiator, responder)
            assert states == expected
            assert effective == int(expected != (initiator, responder))
            assert delta == expected[1].leader - responder.leader
            detected += expected[1].mode == "D"
            killed += responder.leader == 1 and expected[1].leader == 0
    assert detected and killed  # the mode key and the war's kill were both used
    assert all(len(stage) <= stages.MAX_STAGE_ENTRIES for stage in _stage_tables(table))


def test_a_component_outside_its_domain_raises_instead_of_colliding():
    params = PPLParams(psi=2, kappa_factor=1)
    table = StageTable(params)
    state = random_state(RandomSource(1), params)
    with pytest.raises(StateSpaceError, match="timers"):
        table.code([state._replace(clock=params.kappa_max + 1 + code)
                    for code in range(params.timer_domain_size() + 1)])


# ---------------------------------------------------------------------- #
# Bounded stage tables (moved from tests/core/test_fast_simulator.py,
# where the joint table's cap is tested on the [28] baseline)
# ---------------------------------------------------------------------- #
def _stage_tables(table: StageTable):
    return table._timer_table, table._segment_table, table._war_table


def _count_clears(monkeypatch) -> list:
    """Patch the stage-table bound small; return the list each clear appends to."""
    monkeypatch.setattr(stages, "MAX_STAGE_ENTRIES", SMALL_BOUND)
    clears = []
    clear = StageTable._clear

    def counted(self, table):
        clears.append(self)
        clear(self, table)

    monkeypatch.setattr(StageTable, "_clear", counted)
    return clears


def _ingredients(n: int = 8):
    spec = get_spec("ppl")
    config = ExperimentConfig()
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    initial = spec.build_configuration(spec.default_family, protocol, n,
                                       RandomSource(31), population=population)
    return spec, protocol, population, initial


def test_stage_tables_forced_past_their_bound_stay_bit_identical(monkeypatch):
    """With the bound tiny the tables are emptied over and over; a snapshot
    taken before a clear and restored after it resumes exactly."""
    clears = _count_clears(monkeypatch)
    _, protocol, population, initial = _ingredients()
    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    reference = Simulation(protocol, population, initial,
                           scheduler=SequenceScheduler(arcs))
    reference.run_sequence()
    batched = BatchedSimulation(protocol, population, initial,
                                scheduler=SequenceScheduler(arcs))
    batched.run(STREAM_LENGTH // 4)
    saved = batched.snapshot()
    captured = len(clears)
    batched.run(STREAM_LENGTH // 4)
    assert len(clears) > captured  # the tables were emptied meanwhile
    batched.restore(saved)
    batched.run_sequence()
    assert batched.states() == reference.states()
    assert batched.steps == reference.steps == STREAM_LENGTH
    assert batched.metrics == reference.metrics
    assert batched.leader_count() == reference.leader_count()
    assert all(len(stage) <= SMALL_BOUND for stage in _stage_tables(batched._table))


def test_run_until_survives_stage_table_clears(monkeypatch):
    """A ``P_PL`` run checked every step, with the tables emptied mid-run,
    stops where the step loop stops."""
    clears = _count_clears(monkeypatch)
    spec, protocol, population, initial = _ingredients()
    predicate = spec.build_stop_predicate(protocol, population)
    runs = [
        engine(protocol, population, initial, rng=5).run_until(
            predicate, max_steps=400_000, check_interval=1)
        for engine in (Simulation, BatchedSimulation)
    ]
    assert clears
    assert runs[0].satisfied
    assert (runs[1].satisfied, runs[1].steps) == (runs[0].satisfied, runs[0].steps)
    assert runs[1].configuration.states() == runs[0].configuration.states()


# ---------------------------------------------------------------------- #
# A perturbed run, end to end
# ---------------------------------------------------------------------- #
def test_corrupt_recover_scenario_is_equal_on_both_engines(capsys):
    """``run ppl --sizes 16 --trials 2 --scenario corrupt-recover:k=2`` at
    the default seed: equal per-phase rows on both engines, as recorded on
    the joint table."""
    rows = {}
    for engine in ("step", "batched"):
        assert main(["run", "ppl", "--sizes", "16", "--trials", "2",
                     "--scenario", "corrupt-recover:k=2", "--engine", engine,
                     "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        rows[engine] = [[(phase["phase"], phase["steps"]) for phase in trial["phases"]]
                        for result in results for trial in result["trials"]]
    assert rows["step"] == rows["batched"] == [[(0, 384), (1, 5120)],
                                               [(0, 1664), (1, 384)]]
