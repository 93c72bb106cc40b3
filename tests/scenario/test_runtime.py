"""The phased scenario runtime, end to end through the public stack.

The tentpole invariants: a multi-phase scenario is bit-identical on every
engine tier, serial equals parallel, the degenerate one-phase scenario
reproduces legacy single-run results (and their store digests) exactly, and
failures are attributed to the phase whose budget was missed.
"""

from __future__ import annotations

import pytest

from repro.analysis.convergence import summarize_phases
from repro.api import ExperimentConfig, experiment, get_spec
from repro.scenario.runtime import validate_scenario
from repro.scenario.spec import DEGENERATE_PHASE, ScenarioError, parse_scenario
from repro.store.store import batch_digest, canonical_config

ENGINES = ["step", "batched"]

MULTI_PHASE = (
    DEGENERATE_PHASE,                                   # converge
    ("corrupt-states", (("k", 3),), "converge", 0),     # corrupt, re-converge
    ("churn", (("join", 2), ("leave", 2)), "converge", 0),  # churn, re-converge
)


def _run(engine: str, workers: int = 1, scenario=MULTI_PHASE, n: int = 9,
         trials: int = 3, seed: int = 23, topology: str = "directed-ring"):
    builder = (experiment("angluin-modk").on_topology(topology, n)
               .from_adversarial().scenario(scenario).trials(trials).seed(seed)
               .engine(engine))
    if workers > 1:
        builder.parallel(workers)
    return builder.run()


def _phase_rows(result):
    return [
        [(phase.phase, phase.perturbation, phase.steps, phase.converged,
          phase.population_size) for phase in trial.phases]
        for trial in result.trials
    ]


# ---------------------------------------------------------------------- #
# Cross-engine and cross-worker bit-identity
# ---------------------------------------------------------------------- #
def test_multi_phase_scenario_is_bit_identical_across_engines():
    results = [_run(engine) for engine in ENGINES]
    reference = _phase_rows(results[0])
    for result in results[1:]:
        assert _phase_rows(result) == reference
    assert all(trial.converged for result in results for trial in result.trials)


def test_multi_phase_scenario_is_bit_identical_on_the_undirected_ring():
    """Churn re-wires the population between phases, here with arcs both
    ways round the ring; both engines still run every phase identically."""
    results = [_run(engine, topology="undirected-ring", trials=2)
               for engine in ENGINES]
    assert _phase_rows(results[1]) == _phase_rows(results[0])
    assert all(len(trial.phases) == len(MULTI_PHASE) and trial.converged
               for result in results for trial in result.trials)


@pytest.mark.parametrize("engine,expected", [
    ("auto", "batched"), ("step", "step"), ("batched", "batched"),
])
def test_every_phase_reports_the_engine_that_ran(engine, expected):
    """With one table engine no phase can switch tiers, churn included: the
    trial and each of its phases report the one engine that ran."""
    for trial in _run(engine, trials=2).trials:
        assert trial.engine == expected
        assert [phase.engine for phase in trial.phases] == \
            [expected] * len(MULTI_PHASE)


def test_scenario_serial_equals_parallel():
    serial = _run("step", workers=1)
    parallel = _run("step", workers=2)
    assert [trial.steps for trial in serial.trials] == \
        [trial.steps for trial in parallel.trials]
    assert [[phase.steps for phase in trial.phases]
            for trial in serial.trials] == \
        [[phase.steps for phase in trial.phases]
         for trial in parallel.trials]


def test_trial_steps_are_the_sum_of_phase_steps():
    result = _run("step")
    for trial in result.trials:
        assert trial.steps == sum(phase.steps for phase in trial.phases)
        assert len(trial.phases) == len(MULTI_PHASE)


# ---------------------------------------------------------------------- #
# The degenerate scenario is the legacy experiment
# ---------------------------------------------------------------------- #
def test_degenerate_scenario_reproduces_legacy_results_exactly():
    legacy = (experiment("angluin-modk").on_ring(9).trials(4).seed(17).run())
    degenerate = (experiment("angluin-modk").on_ring(9).trials(4).seed(17)
                  .scenario("converge").run())
    assert [trial.steps for trial in legacy.trials] == \
        [trial.steps for trial in degenerate.trials]
    assert all(trial.phases == () for trial in degenerate.trials)


def test_degenerate_scenario_keeps_legacy_store_digests():
    legacy = ExperimentConfig(seed=17)
    degenerate = ExperimentConfig(seed=17, scenario=(DEGENERATE_PHASE,))
    assert degenerate.scenario == ()
    assert canonical_config(degenerate) == canonical_config(legacy)
    assert "scenario" not in canonical_config(legacy)
    assert batch_digest("angluin-modk", 9, "adversarial", "angluin", degenerate) \
        == batch_digest("angluin-modk", 9, "adversarial", "angluin", legacy)


def test_non_empty_scenarios_get_their_own_digest():
    legacy = ExperimentConfig(seed=17)
    scenario = ExperimentConfig(seed=17, scenario=MULTI_PHASE)
    assert batch_digest("angluin-modk", 9, "adversarial", "angluin", scenario) \
        != batch_digest("angluin-modk", 9, "adversarial", "angluin", legacy)


def test_phase_zero_replays_the_legacy_trial_stream():
    """The first phase of any scenario consumes the trial seeds exactly like
    a legacy run, so phase-0 step counts match the plain experiment."""
    legacy = experiment("angluin-modk").on_ring(9).trials(3).seed(23).run()
    phased = _run("step", seed=23)
    assert [trial.phases[0].steps for trial in phased.trials] == \
        [trial.steps for trial in legacy.trials]


# ---------------------------------------------------------------------- #
# Store round-trip
# ---------------------------------------------------------------------- #
def test_scenario_results_round_trip_through_the_store(tmp_path):
    cold = (experiment("angluin-modk").on_ring(9).scenario(MULTI_PHASE)
            .trials(3).seed(23).store(tmp_path / "store").run())
    warm_store_builder = (experiment("angluin-modk").on_ring(9)
                          .scenario(MULTI_PHASE).trials(3).seed(23)
                          .store(tmp_path / "store"))
    warm = warm_store_builder.run()
    assert warm_store_builder._store.executed == 0
    assert warm_store_builder._store.served == 3
    assert [trial.to_dict() for trial in warm.trials] == \
        [trial.to_dict() for trial in cold.trials]
    assert all(len(trial.phases) == len(MULTI_PHASE) for trial in warm.trials)


# ---------------------------------------------------------------------- #
# Failure attribution and validation
# ---------------------------------------------------------------------- #
def test_budget_miss_is_attributed_to_its_phase():
    starved = (
        DEGENERATE_PHASE,
        ("corrupt-states", (("k", 5),), "converge", 1),  # 1 step: cannot recover
    )
    result = (experiment("angluin-modk").on_ring(9).scenario(starved)
              .trials(2).seed(23).run())
    for trial in result.trials:
        assert not trial.converged
        assert trial.phases[0].converged
        assert not trial.phases[1].converged
        assert len(trial.phases) == 2  # the run stops at the failed phase
    summaries = summarize_phases(result.trials)
    assert summaries[0].failures == 0 and summaries[0].converged == 2
    assert summaries[1].failures == 2 and summaries[1].converged == 0
    assert summaries[1].perturbation == "corrupt-states"


def test_run_phases_execute_exactly_their_budget():
    scenario = (
        DEGENERATE_PHASE,
        ("corrupt-states", (("k", 2),), "run", 777),
    )
    result = (experiment("angluin-modk").on_ring(9).scenario(scenario)
              .trials(2).seed(23).run())
    for trial in result.trials:
        assert trial.phases[1].steps == 777
        assert trial.phases[1].converged


def test_validate_scenario_tracks_churn_sizes():
    spec = get_spec("angluin-modk")
    config = ExperimentConfig()
    # 9 - 1 + 1 = 9: fine.
    validate_scenario(parse_scenario("churn-recover"), spec, 9, config)
    # 9 - 1 + 2 = 10 is divisible by 2: infeasible for angluin-modk.
    with pytest.raises(ScenarioError, match="churn resizes the population"):
        validate_scenario(parse_scenario("churn-recover:leave=1,join=2"),
                          spec, 9, config)


def test_bias_scenario_on_the_oracle_spec_is_equal_on_both_engines(monkeypatch):
    """The biased scheduler drives the oracle-backed spec like any other:
    the oracle is consulted by step count, whoever draws the arcs.  Here
    every agent is corrupted under the bias, and one re-convergence needs
    the oracle."""
    from repro.protocols.baselines.fischer_jiang import OracleOmega

    reports = []
    report = OracleOmega.observe_and_report

    def counted(self, states):
        reports.append(report(self, states))
        return reports[-1]

    monkeypatch.setattr(OracleOmega, "observe_and_report", counted)
    validate_scenario(parse_scenario("bias-recover"), get_spec("fischer-jiang"),
                      8, ExperimentConfig())
    results = [experiment("fischer-jiang").on_ring(8).then_bias(weight=3)
               .then_converge().then_corrupt(8).then_converge().trials(3)
               .seed(23).check_interval(1).engine(engine).run()
               for engine in ENGINES]
    assert _phase_rows(results[1]) == _phase_rows(results[0])
    assert all(trial.converged and trial.phases[1].perturbation == "bias"
               for result in results for trial in result.trials)
    assert reports.count(True) == 2  # once per engine


def test_builder_validates_scenarios_eagerly():
    with pytest.raises(ScenarioError, match="1 <= k <= n"):
        (experiment("angluin-modk").on_ring(9)
         .scenario("corrupt-recover:k=99").run())


def test_fischer_jiang_runs_scenarios_on_the_table_with_its_oracle():
    """Every phase's simulation is built with a fresh oracle, on the
    batched engine under ``auto``."""
    result = (experiment("fischer-jiang").on_ring(8)
              .scenario("corrupt-recover:k=2").trials(2).seed(23).run())
    assert all(trial.converged for trial in result.trials)
    assert all(trial.phases[1].perturbation == "corrupt-states"
               for trial in result.trials)
    assert all(trial.engine == "batched" for trial in result.trials)


def test_builder_then_chain_builds_the_canonical_scenario():
    builder = (experiment("angluin-modk").on_ring(9)
               .then_corrupt(2).then_converge()
               .then_churn(leave=1, join=1).then_run(100)
               .then_bias(weight=3))
    config = builder.build_config()
    assert config.scenario == (
        DEGENERATE_PHASE,
        ("corrupt-states", (("k", 2),), "converge", 0),
        ("churn", (("join", 1), ("leave", 1)), "run", 100),
        ("bias", (("weight", 3),), "converge", 0),  # dangling stage closed
    )
