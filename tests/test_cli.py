"""Tests for the ``repro-ssle`` command-line interface (subparser redesign)."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from repro.api import ExperimentConfig, spec_names
from repro.api.builder import ExperimentBuilder
from repro.cli import _config_from_args, build_parser, main
from repro.core.configuration import Configuration


# ---------------------------------------------------------------------- #
# Parsing
# ---------------------------------------------------------------------- #
def test_parser_defaults():
    args = build_parser().parse_args(["demo"])
    assert args.sizes == [8, 16, 32]
    assert args.trials == 3
    assert args.format == "text"
    assert args.command == "demo"


def test_parser_accepts_custom_sizes_per_command():
    args = build_parser().parse_args(["table1", "--sizes", "4,6"])
    assert args.sizes == [4, 6]


def test_parser_dedupes_and_sorts_sizes():
    args = build_parser().parse_args(["run", "ppl", "--sizes", "16,8,8,6"])
    assert args.sizes == [6, 8, 16]


def test_parser_rejects_bad_sizes():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table1", "--sizes", "1,4"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table1", "--sizes", ""])


def test_parser_rejects_bad_trials_and_max_steps():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "ppl", "--trials", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "ppl", "--max-steps", "-1"])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["not-a-command"])


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ---------------------------------------------------------------------- #
# list
# ---------------------------------------------------------------------- #
def test_list_text_names_every_registered_spec(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in spec_names():
        assert name in out


def test_list_json_schema(capsys):
    assert main(["list", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "list"
    names = [entry["name"] for entry in payload["protocols"]]
    assert names == spec_names()
    for entry in payload["protocols"]:
        assert entry["kind"] in ("simulated", "analytic")
        assert entry["summary"]


# ---------------------------------------------------------------------- #
# run — the generic registry-driven command
# ---------------------------------------------------------------------- #
def test_run_every_listed_protocol_emits_valid_json(capsys):
    """Acceptance: `run <name>` works for every spec in `list` with JSON output."""
    from repro.api import get_spec

    for name in spec_names():
        spec = get_spec(name)
        n = next(size for size in range(8, 16)
                 if not spec.is_simulated or spec.supports(size))
        code = main(["run", name, "--sizes", str(n), "--trials", "1",
                     "--max-steps", "600000", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["command"] == "run"
        assert payload["protocol"] == name
        assert len(payload["results"]) == 1
        result = payload["results"][0]
        assert result["population_size"] == n
        if payload["kind"] == "simulated":
            assert result["all_converged"] is True
            assert result["trials"][0]["converged"] is True
            assert result["trials"][0]["steps"] >= 0
        else:
            assert result["analytic"] is True


def test_run_json_schema_fields(capsys):
    assert main(["run", "ppl", "--sizes", "8", "--trials", "2", "--seed", "5",
                 "--max-steps", "600000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert set(result) >= {"spec", "protocol", "population_size", "family",
                           "seed", "max_steps", "workers", "wall_time",
                           "all_converged", "mean_steps", "trials"}
    assert result["seed"] == 5
    assert len(result["trials"]) == 2
    for trial in result["trials"]:
        assert set(trial) == {"trial", "steps", "converged", "wall_time",
                              "engine", "protocol_name", "phases"}
        assert trial["phases"] == []  # no --scenario: the legacy single run
        assert trial["engine"] == "batched"  # P_PL's state space: lazy table
        assert trial["protocol_name"].startswith("P_PL")


def test_run_engine_flag_selects_the_batched_engine(capsys):
    assert main(["run", "angluin-modk", "--sizes", "9", "--trials", "2",
                 "--max-steps", "400000", "--engine", "batched",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    trials = payload["results"][0]["trials"]
    assert {trial["engine"] for trial in trials} == {"batched"}


def test_run_engines_agree_on_step_counts(capsys):
    outcomes = {}
    for engine in ("step", "batched"):
        assert main(["run", "angluin-modk", "--sizes", "9", "--trials", "2",
                     "--max-steps", "400000", "--engine", engine,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        outcomes[engine] = [trial["steps"]
                            for trial in payload["results"][0]["trials"]]
    assert outcomes["step"] == outcomes["batched"]


def test_run_fischer_jiang_is_equal_on_both_engines(capsys):
    outcomes = {}
    for engine in ("step", "batched"):
        assert main(["run", "fischer-jiang", "--sizes", "8,16", "--trials", "3",
                     "--engine", engine, "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert {trial["engine"] for result in results
                for trial in result["trials"]} == {engine}
        outcomes[engine] = [(trial["steps"], trial["converged"])
                            for result in results for trial in result["trials"]]
    assert outcomes["step"] == outcomes["batched"]


def test_run_rejects_engine_flag_for_analytic_specs(capsys):
    with pytest.raises(SystemExit):
        main(["run", "chen-chen", "--sizes", "8", "--engine", "step"])
    assert "analytic" in capsys.readouterr().err


def test_forced_batched_engine_runs_ppl_and_numpy_is_not_an_engine(capsys):
    """--engine batched on P_PL runs: the lazy table needs no enumeration.
    --engine numpy names an engine that no longer exists: a usage error
    that lists the three engines."""
    assert main(["run", "ppl", "--sizes", "8", "--trials", "1", "--engine", "batched",
                 "--format", "json"]) == 0
    trials = json.loads(capsys.readouterr().out)["results"][0]["trials"]
    assert {trial["engine"] for trial in trials} == {"batched"}
    for command in (["run", "ppl", "--sizes", "8"], ["check", "yokota2021", "--quant"]):
        with pytest.raises(SystemExit):
            main(command + ["--engine", "numpy"])
        err = capsys.readouterr().err
        assert "invalid choice: 'numpy'" in err
        assert "'auto', 'step', 'batched'" in err


def test_every_engine_flag_offers_exactly_the_engines():
    """Every subcommand that takes --engine draws its choices from ENGINES,
    so none can offer an engine that does not exist."""
    from repro.core.fast_simulator import ENGINES

    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    offered = {}
    for command, parser in subcommands.choices.items():
        for action in parser._actions:
            if "--engine" in action.option_strings:
                offered[command] = tuple(action.choices)
    assert {"run", "table1", "scaling", "check"} <= set(offered)
    assert set(offered.values()) == {ENGINES}


def test_states_the_table_cannot_code_are_a_usage_error(capsys):
    """A state that is neither hashable nor a dataclass cannot be coded by
    the lazy table: a clean usage error pointing at --engine step, not a
    StateSpaceError traceback mid-run."""
    from repro.api import ProtocolSpec, register, unregister
    from repro.core.protocol import FOLLOWER_OUTPUT, Protocol

    class Opaque:
        __hash__ = None

        def __eq__(self, other):
            return isinstance(other, Opaque)

    class OpaqueProtocol(Protocol):
        name = "opaque"

        def transition(self, initiator, responder):
            return initiator, responder

        def output(self, state):
            return FOLLOWER_OUTPUT

        def random_state(self, rng):
            return Opaque()

    register(ProtocolSpec(
        name="opaque-test",
        summary="states without a key",
        factory=lambda n, config: OpaqueProtocol(),
        families={"adversarial": lambda protocol, n, rng:
                  Configuration([Opaque() for _ in range(n)])},
        stop_predicate=lambda protocol: (lambda states: True),
    ))
    try:
        with pytest.raises(SystemExit):
            main(["run", "opaque-test", "--sizes", "4", "--trials", "1"])
        err = capsys.readouterr().err
        assert "neither hashable nor dataclasses" in err and "--engine step" in err
        assert main(["run", "opaque-test", "--sizes", "4", "--trials", "1",
                     "--engine", "step"]) == 0
    finally:
        unregister("opaque-test")


def test_bespoke_simulation_commands_reject_engine_flag(capsys):
    """Commands that drive their own simulations on a fixed engine must
    refuse the flag rather than silently ignore the user's engine choice."""
    for command in ("detection", "elimination", "orientation", "figure1", "demo"):
        with pytest.raises(SystemExit):
            main([command, "--sizes", "8", "--engine", "batched"])
        assert "--engine does not apply" in capsys.readouterr().err


def test_run_passes_every_sweep_flag_to_the_builder(monkeypatch):
    """`run` builds each point's config through the fluent builder, so a
    sweep flag the builder never receives would be silently ignored."""
    argv = ["run", "angluin-modk", "--sizes", "9", "--trials", "2",
            "--max-steps", "3000", "--check-interval", "7",
            "--kappa-factor", "2", "--seed", "5", "--engine", "step",
            "--topology", "torus:width=3,height=3",
            "--scenario", "corrupt-recover:k=1", "--format", "json"]
    expected = _config_from_args(build_parser().parse_args(argv))
    default = ExperimentConfig()
    assert all(getattr(expected, field.name) != getattr(default, field.name)
               for field in dataclasses.fields(ExperimentConfig))
    built = []
    build_config = ExperimentBuilder.build_config

    def recorded(self):
        built.append(build_config(self))
        return built[-1]

    monkeypatch.setattr(ExperimentBuilder, "build_config", recorded)
    assert main(argv) == 0
    assert [dataclasses.replace(config, sizes=expected.sizes)
            for config in built] == [expected]


def test_run_with_family_and_workers(capsys):
    assert main(["run", "ppl", "--sizes", "8", "--trials", "2",
                 "--family", "leaderless-trap", "--workers", "2",
                 "--max-steps", "600000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert result["family"] == "leaderless-trap"
    assert result["workers"] == 2
    assert result["all_converged"] is True


def test_run_unknown_protocol_is_a_clean_error():
    with pytest.raises(SystemExit):
        main(["run", "no-such-protocol"])


def test_run_unsupported_size_is_a_clean_error():
    with pytest.raises(SystemExit):
        main(["run", "angluin-modk", "--sizes", "8", "--trials", "1"])


def test_run_unknown_family_is_a_clean_error():
    with pytest.raises(SystemExit):
        main(["run", "ppl", "--sizes", "8", "--family", "no-such-family"])


def test_run_rejects_simulation_flags_on_analytic_specs(capsys):
    with pytest.raises(SystemExit):
        main(["run", "chen-chen", "--sizes", "8", "--workers", "4"])
    assert "analytic" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "chen-chen", "--sizes", "8", "--family", "uniform"])
    assert "--family does not apply" in capsys.readouterr().err


def test_scaling_requires_two_sizes(capsys):
    with pytest.raises(SystemExit):
        main(["scaling", "--sizes", "8", "--trials", "1"])
    assert "at least two ring sizes" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# --topology
# ---------------------------------------------------------------------- #
def test_run_on_complete_topology_converges(capsys):
    """Acceptance: `run fischer-jiang --topology complete` converges."""
    assert main(["run", "fischer-jiang", "--topology", "complete",
                 "--sizes", "8", "--trials", "2", "--max-steps", "600000",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert result["topology"] == "complete"
    assert result["all_converged"] is True


def test_run_on_torus_topology_converges(capsys):
    """Acceptance: `run angluin-modk --topology torus` converges."""
    assert main(["run", "angluin-modk", "--topology", "torus",
                 "--sizes", "9", "--trials", "2", "--max-steps", "2000000",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert result["topology"] == "torus"
    assert result["all_converged"] is True


def test_run_topology_is_deterministic_per_seed(capsys):
    outcomes = []
    for _ in range(2):
        assert main(["run", "fischer-jiang", "--topology", "complete",
                     "--sizes", "8", "--trials", "2", "--seed", "7",
                     "--max-steps", "600000", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        outcomes.append([trial["steps"]
                         for trial in payload["results"][0]["trials"]])
    assert outcomes[0] == outcomes[1]


def test_run_accepts_topology_parameters(capsys):
    assert main(["run", "fischer-jiang", "--topology",
                 "random-regular:degree=3,seed=5", "--sizes", "8",
                 "--trials", "1", "--max-steps", "600000",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert result["topology"] == "random-regular"
    assert result["topology_params"] == {"degree": 3, "seed": 5}
    assert result["all_converged"] is True


def test_run_ring_only_protocol_rejects_other_topologies(capsys):
    """Acceptance: `run ppl --topology complete` fails fast and clearly."""
    with pytest.raises(SystemExit):
        main(["run", "ppl", "--topology", "complete", "--sizes", "8"])
    assert "does not support topology" in capsys.readouterr().err


def test_run_unknown_topology_is_a_clean_error(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fischer-jiang", "--topology", "hypercube", "--sizes", "8"])
    assert "registered" in capsys.readouterr().err


def test_run_invalid_topology_size_is_a_clean_error(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fischer-jiang", "--topology", "torus", "--sizes", "10"])
    assert "factorization" in capsys.readouterr().err


def test_run_malformed_topology_parameters_are_a_clean_error(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fischer-jiang", "--topology", "torus:width",
              "--sizes", "9"])
    assert "key=value" in capsys.readouterr().err


def test_run_rejects_topology_flag_on_analytic_specs(capsys):
    with pytest.raises(SystemExit):
        main(["run", "chen-chen", "--sizes", "8", "--topology", "complete"])
    assert "--topology does not apply" in capsys.readouterr().err


def test_scaling_rejects_non_ring_topologies(capsys):
    with pytest.raises(SystemExit):
        main(["scaling", "--sizes", "8,16", "--trials", "1",
              "--topology", "complete"])
    assert "does not support topology" in capsys.readouterr().err


def test_scaling_rejects_bad_topology_parameters_cleanly(capsys):
    """Regression: a supported topology name with bogus parameters passed
    scaling's name-only check and surfaced as a raw TopologyError traceback
    mid-command instead of a usage error."""
    with pytest.raises(SystemExit):
        main(["scaling", "--sizes", "8,16", "--trials", "1",
              "--topology", "directed-ring:bogus=1"])
    assert "does not accept parameter" in capsys.readouterr().err


def test_list_reports_supported_topologies(capsys):
    assert main(["list", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in payload["protocols"]}
    assert by_name["ppl"]["topologies"] == ["directed-ring"]
    assert by_name["fischer-jiang"]["topologies"] == "any"
    assert by_name["chen-chen"]["topologies"] is None


# ---------------------------------------------------------------------- #
# Legacy report commands on the new CLI
# ---------------------------------------------------------------------- #
def test_demo_command_runs_end_to_end(capsys):
    exit_code = main(["demo", "--sizes", "8", "--trials", "1",
                      "--max-steps", "600000", "--seed", "3"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "converged: True" in captured.out


def test_demo_json_output(capsys):
    exit_code = main(["demo", "--sizes", "8", "--max-steps", "600000",
                      "--seed", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["command"] == "demo"
    assert payload["converged"] is True
    assert payload["steps"] > 0


def test_figure2_command_prints_trajectory(capsys):
    exit_code = main(["figure2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "match = True" in captured.out


def test_figure2_json_output(capsys):
    exit_code = main(["figure2", "--psi", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["matches_definition"] is True
    assert payload["positions"][0] == 0


def test_figure1_command_prints_embedding(capsys):
    exit_code = main(["figure1", "--sizes", "8", "--trials", "1"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "perfect=True" in captured.out


# ---------------------------------------------------------------------- #
# All-failed runs (regression: reports, not tracebacks)
# ---------------------------------------------------------------------- #
def test_run_all_failed_reports_failures_in_text_and_json(capsys):
    assert main(["run", "ppl", "--sizes", "8", "--trials", "2",
                 "--max-steps", "64"]) == 0
    out = capsys.readouterr().out
    assert "mean steps = n/a (no trial converged)" in out
    assert "failures = 2/2" in out
    assert main(["run", "ppl", "--sizes", "8", "--trials", "2",
                 "--max-steps", "64", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert result["all_converged"] is False
    assert result["failures"] == 2
    assert result["mean_steps"] is None


def test_scaling_all_failed_points_are_flagged_not_a_crash(capsys):
    """Regression: an all-failed sweep crashed in ascii_bar_chart (NaN from
    inf/inf) after feeding inf means toward the growth-law fits."""
    assert main(["scaling", "--sizes", "8,16", "--trials", "1",
                 "--max-steps", "64", "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "no trial converged at n = 8, 16" in out
    assert "no growth-law fits" in out
    assert main(["scaling", "--sizes", "8,16", "--trials", "1",
                 "--max-steps", "64", "--no-baseline",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["series"][0]
    assert entry["failed_sizes"] == [8, 16]
    assert entry["best_fit"] is None and entry["fits"] == []
    assert entry["mean_steps"] == [None, None]  # strict JSON: inf -> null


# ---------------------------------------------------------------------- #
# --store / --no-store-write / cache
# ---------------------------------------------------------------------- #
def test_run_store_round_trip_executes_nothing_twice(tmp_path, capsys):
    base = ["run", "angluin-modk", "--sizes", "5", "--trials", "2",
            "--max-steps", "600000", "--store", str(tmp_path),
            "--format", "json"]
    assert main(base) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["store"]["executed"] == 2 and cold["store"]["served"] == 0
    assert main(base) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["store"]["executed"] == 0 and warm["store"]["served"] == 2
    strip = lambda result: {key: value for key, value in result.items()
                            if key != "wall_time"}
    assert [strip(r) for r in warm["results"]] == \
        [strip(r) for r in cold["results"]]
    assert warm["results"][0]["trials"] == cold["results"][0]["trials"]


def test_store_env_var_enables_the_store(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    args = ["run", "angluin-modk", "--sizes", "5", "--trials", "1",
            "--max-steps", "600000", "--format", "json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["store"]["executed"] == 1
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["store"]["served"] == 1


def test_no_store_write_serves_but_persists_nothing(tmp_path, capsys):
    base = ["run", "angluin-modk", "--sizes", "5", "--trials", "1",
            "--max-steps", "600000", "--store", str(tmp_path)]
    assert main(base + ["--no-store-write", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["store"]["write"] is False
    assert not any(tmp_path.rglob("*.json"))


def test_no_store_write_without_a_store_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    with pytest.raises(SystemExit):
        main(["run", "angluin-modk", "--sizes", "5", "--no-store-write"])
    assert "--no-store-write needs a store" in capsys.readouterr().err


def test_store_flags_rejected_on_analytic_specs(capsys):
    with pytest.raises(SystemExit):
        main(["run", "chen-chen", "--sizes", "8", "--store", "/tmp/x"])
    assert "--store does not apply" in capsys.readouterr().err


def test_table1_store_round_trip(tmp_path, capsys):
    base = ["table1", "--sizes", "5", "--trials", "1",
            "--max-steps", "600000", "--store", str(tmp_path),
            "--format", "json"]
    assert main(base) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["store"]["executed"] > 0
    assert main(base) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["store"]["executed"] == 0
    assert warm["rows"] == cold["rows"]


def test_cache_list_info_clear_cycle(tmp_path, capsys):
    assert main(["run", "angluin-modk", "--sizes", "5", "--trials", "1",
                 "--max-steps", "600000", "--store", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "list", "--store", str(tmp_path),
                 "--format", "json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing["records"]) == 1
    record = listing["records"][0]
    assert record["spec"] == "angluin-modk" and record["trials"] == 1

    assert main(["cache", "info", record["digest"][:8],
                 "--store", str(tmp_path), "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["record"]["digest"] == record["digest"]
    assert info["record"]["config"]["topology"] == "directed-ring"

    assert main(["cache", "info", "--store", str(tmp_path),
                 "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == 1 and summary["corrupt"] == 0

    assert main(["cache", "clear", "--store", str(tmp_path)]) == 0
    assert "removed 1 record(s)" in capsys.readouterr().out
    assert main(["cache", "list", "--store", str(tmp_path),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == []


def test_cache_without_a_store_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    with pytest.raises(SystemExit):
        main(["cache", "list"])
    assert "cache commands need a store" in capsys.readouterr().err


def test_cache_info_unknown_digest_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["cache", "info", "feedbeef", "--store", str(tmp_path)])
    assert "no record with digest prefix" in capsys.readouterr().err


def test_scaling_store_reuses_every_converged_point(tmp_path, capsys):
    """The acceptance criterion: a repeated scaling sweep with --store
    recomputes nothing and reproduces the series bit-for-bit."""
    base = ["scaling", "--sizes", "6,8", "--trials", "1",
            "--max-steps", "600000", "--no-baseline",
            "--store", str(tmp_path), "--format", "json"]
    assert main(base) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["store"]["executed"] == 2
    assert main(base) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["store"]["executed"] == 0 and warm["store"]["served"] == 2
    assert warm["series"] == cold["series"]


def test_cache_info_reports_the_age_range(tmp_path, capsys):
    assert main(["run", "angluin-modk", "--sizes", "5", "--trials", "1",
                 "--max-steps", "600000", "--store", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "info", "--store", str(tmp_path),
                 "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == 1 and summary["bytes"] > 0
    assert 0 <= summary["age_days"]["newest"] <= summary["age_days"]["oldest"]
    assert main(["cache", "list", "--store", str(tmp_path),
                 "--format", "json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert listing["records"][0]["age_days"] >= 0


def test_cache_clear_older_than_keeps_young_records(tmp_path, capsys):
    assert main(["run", "angluin-modk", "--sizes", "5", "--trials", "1",
                 "--max-steps", "600000", "--store", str(tmp_path)]) == 0
    capsys.readouterr()
    # A just-written record is younger than 30 days: nothing to remove.
    assert main(["cache", "clear", "--older-than", "30",
                 "--store", str(tmp_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == 0
    # Age zero removes everything (every record is at least 0 days old).
    assert main(["cache", "clear", "--older-than", "0",
                 "--store", str(tmp_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == 1


def test_cache_older_than_outside_clear_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["cache", "list", "--older-than", "1", "--store", str(tmp_path)])
    assert "--older-than only applies" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cache", "clear", "--older-than", "-1",
                                   "--store", str(tmp_path)])


def test_scaling_progress_reports_each_point(capsys):
    assert main(["scaling", "--sizes", "6,8", "--trials", "1",
                 "--max-steps", "600000", "--no-baseline", "--progress",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if "[scaling" in line]
    assert len(lines) == 2
    assert "[scaling 1/2] ppl n=6" in lines[0]
    assert "[scaling 2/2] ppl n=8" in lines[1]
    assert json.loads(captured.out)["command"] == "scaling"


def test_serve_parser_defaults_and_bounds():
    args = build_parser().parse_args(["serve"])
    assert (args.host, args.port) == ("127.0.0.1", 8642)
    assert args.workers is None and args.max_jobs is None
    args = build_parser().parse_args(["serve", "--port", "0",
                                      "--workers", "0", "--max-jobs", "2"])
    assert args.port == 0 and args.workers == 0 and args.max_jobs == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--max-jobs", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--workers", "-1"])


def test_table1_and_a_quant_point_never_import_numpy():
    """No engine uses numpy: the paper's Table 1 and an exact-time gate
    point run in a fresh interpreter without it ever being imported."""
    import subprocess
    import sys
    from pathlib import Path

    script = r"""
import sys
from repro.cli import main

assert main(["table1", "--format", "json"]) == 0
assert main(["check", "yokota2021", "--quant", "--n", "2", "--format", "json"]) == 0
print("NUMPY_IMPORTED=" + str(any(name.split(".")[0] == "numpy" for name in sys.modules)))
"""
    source_root = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(source_root), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "NUMPY_IMPORTED=False"
