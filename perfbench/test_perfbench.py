"""Tests of the benchmark itself: tiny workloads, references, absent targets.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "scaling-ring": workloads.scaling_ring(sizes=(32, 64), trials=1),
    "angluin-ring": workloads.angluin_ring(size=9, trials=2),
    "quant-gate": workloads.quant_gate(points=(("yokota2021", "--n", "2"),)),
}


def _declared(kind: str):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def _bench(capsys, *args, **options):
    code = run.main([str(arg) for arg in args], **{"workloads": TINY, **options})
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def _printed(lines, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[1:] for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(capsys, name, trace):
    code, lines, result = _bench(capsys, "--workload", name, "--seed", 7,
                                 "--seconds", 0, "--trace", trace)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert _printed(lines, metric["name"], metric["unit"]), metric["name"]
    named = "nodes_per_s" if name == "quant-gate" else "steps_per_s"
    printed_only = [("failed_share", "1")] + (
        [] if trace else [("wall_s", "s"), ("cpu_s", "s"), (named, "1/s")])
    for name_, unit in printed_only:
        assert _printed(lines, name_, unit), name_
    assert not any("absent" in line for line in lines)


def test_committed_reference_matches_at_the_default_seed(tmp_path):
    workload = workloads.WORKLOADS["angluin-ring"]
    rep = run._rep(run.Runner(tmp_path, time.perf_counter()), workload,
                   workloads.DEFAULT_SEED, workloads.load_reference(workload.name), None)
    assert rep.failed == 0, rep.notes


def test_corrupted_reference_fails_the_run(capsys, tmp_path):
    wrong = {"trial 0": {"steps": 1, "converged": True},
             "trial 1": {"steps": 2, "converged": True}}
    (tmp_path / "angluin-ring.json").write_text(json.dumps({"outcomes": wrong}))
    code, lines, result = _bench(capsys, "--workload", "angluin-ring",
                                 "--seed", workloads.DEFAULT_SEED, "--seconds", 0,
                                 "--trace", 0, references=tmp_path)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    (share,) = [line.split() for line in lines if line.split()[:1] == ["failed_share"]]
    assert float(share[1]) > 0
    assert any("disagrees with the reference" in line for line in lines)


def test_missing_wrapped_function_is_reported_absent(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    module.present = lambda: None
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (
        ("a", "repro.api.executor:no_such_function", None),
        ("b", "repro.no_such_module:anything", None),
        ("c", "repro.core.encoding:StateEncoder.no_such_method", None),
        ("d", "perfbench_fake_layer:gone", None),
        ("d", "perfbench_fake_layer:present", None),
    )
    status = tracing.install(tracing.Tracer(), targets)
    assert [status[span] for span in "abcd"] == ["absent"] * 3 + ["ok"]
    # Spans wrapped around a target's result go with that target.
    assert {status[span] for span in tracing.DERIVED} == {"absent"}

    trace = {"spans": {}, "counters": {}, "top_s": 0.0, "install_s": 0.0,
             "absent_spans": ["check.probability.hitting_times"]}
    metrics = run._layer_metrics([trace], traced_wall=1.0, untraced_wall=1.0)
    for name in ("check.probability.solve_s", "check.probability.sweeps",
                 "check.probability.transient"):
        assert metrics[name][0] is None and run._format(metrics[name][0]) == "absent"
    assert metrics["check.symmetry.quotient_s"][0] == 0


def test_marks_cut_the_timed_unit_into_pieces(monkeypatch, tmp_path):
    cases = (
        # unit entry | step entry | exit | entry | exit | unit exit; the step
        # before the unit is no piece.
        ("work", ["step"], [5], "perfbench_fake_unit:work"),
        ("work", [], [1], "perfbench_fake_unit:work"),
        # An absent unit: the whole command is the unit, and its import
        # statement marks a piece as well.
        ("gone", ["step"], [9], "whole"),
    )
    # The launcher patches for the rest of its process: keep it off the
    # program's predicate builder, and restore the import statement.
    monkeypatch.setattr(tracing, "PREDICATE_BUILDER", "perfbench_fake_unit:no_builder")
    monkeypatch.setattr(builtins, "__import__", builtins.__import__)
    for number, (unit, marks, count, recorded_unit) in enumerate(cases):
        module = types.ModuleType("perfbench_fake_unit")
        module.step = lambda: time.sleep(0.01)
        module.work = lambda: [module.step() for _ in range(2)]
        monkeypatch.setitem(sys.modules, module.__name__, module)
        pieces = tmp_path / f"{number}.json"
        argv = ["--pieces", str(pieces), "--unit", f"{module.__name__}:{unit}"]
        argv += [arg for mark in marks for arg in ("--mark", f"{module.__name__}:{mark}")]
        code = "import perfbench_fake_unit as unit; unit.step(); unit.work()"
        assert tracing.main(argv + ["--", "-c", code]) == 0
        recorded = json.loads(pieces.read_text())
        assert ([len(call) for call in recorded["pieces"]], recorded["unit"]) == (
            count, recorded_unit)
        assert sum(recorded["pieces"][0]) >= (0.03 if unit == "gone" else 0.02)


def test_a_calls_time_sums_each_pieces_fastest_run():
    def rep(*commands):
        return run.Rep([run.Process(0.0, 0.0, 0.0, 0, "", "",
                                    pieces=[list(call) for call in calls])
                        for calls in commands], {})

    reps = [rep([[3.0, 1.0]], [[2.0]]), rep([[2.0, 4.0]], [[5.0]]), rep([[1.0]], [[1.0]])]
    times, pieces, notes = run._fastest_calls(reps)
    assert (times, pieces) == ([2.0 + 1.0, 2.0], 3)
    # A repetition whose pieces do not line up is left out, and fails.
    assert [r.failed for r in reps] == [0, 0, 1] and len(notes) == 1


def test_rate_is_the_harmonic_mean_over_points():
    # 100 units in two calls of 1 s, then 300 units in one call of 1 s.
    rate, _ = run._rate([(100, 2), (300, 1)], [1.0, 1.0, 1.0])
    assert rate == pytest.approx(2 / (2.0 / 100 + 1.0 / 300))
    # Calls that do not match the points: all the work over all the time.
    rate, how = run._rate([(100, 2)], [1.0, 1.0, 1.0])
    assert rate == pytest.approx(100 / 3.0) and "not split" in how


def test_a_command_past_the_deadline_is_not_measured(capsys, monkeypatch):
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 3.0)
    stuck = dataclasses.replace(
        TINY["angluin-ring"], name="stuck", setup=lambda seed: [["-c", "pass"]],
        commands=lambda seed: [["-c", "import time; time.sleep(60)"]])
    started = time.perf_counter()
    code = run.main(["--workload", "stuck", "--seed", "1", "--seconds", "0",
                     "--trace", "0"], workloads={"stuck": stuck})
    captured = capsys.readouterr()
    assert code == 2 and captured.out.strip() == ""
    assert "not measured" in captured.err
    assert time.perf_counter() - started < 30


def test_self_time_excludes_the_spans_called():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    calls, total, own = tracer.spans["outer"]
    assert calls == 1 and total >= 0.03
    assert own == pytest.approx(total - tracer.spans["inner"][1])
    assert tracer.top_s == total


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scaling-ring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
