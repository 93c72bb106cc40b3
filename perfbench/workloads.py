"""The benchmark's workloads: the commands each one runs, and its output checks.

Every workload is a list of commands, each run as ``python3 <command>`` in
a fresh process: one serial client, no pool, no server, one thread.  The
workload seed is passed to every command.  A workload reads its outputs as
*outcomes*: one entry per operation group (a sweep point, a trial, a quant
point), weighted by the operations (trials, quant points) it stands for.
Outcomes must repeat exactly for a seed, must pass the command's own gates,
and must match the committed reference at :data:`DEFAULT_SEED`.

README.md says why each workload was chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The seed the committed references were made with (the CLI's default).
DEFAULT_SEED = 2023

#: Step budget per trial (the CLI's default), passed explicitly so that the
#: simulated-step count of a budget miss is known.
MAX_STEPS = 2_000_000

REFERENCES = Path(__file__).resolve().parent / "references"

#: The executor's entry point for one trial, whatever the engine.
TRIAL = "repro.api.executor:execute_trial"

Outcomes = Dict[str, Dict[str, object]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see the module docstring."""

    name: str
    #: What ``work`` counts: "steps" (simulated interactions) or "nodes"
    #: (analyzed configuration-graph nodes: orbits under a quotient).
    unit: str
    #: "module:attribute" of the function whose calls hold the work the
    #: timed runs time: one call is one trial or one quant point.
    timed: str
    #: seed -> the commands of one repetition (argv after ``python3``).
    commands: Callable[[int], List[List[str]]]
    #: seed -> the same commands with a zero work budget: their wall time is
    #: the workload's fixed set-up cost.
    setup: Callable[[int], List[List[str]]]
    #: The JSON payloads of one repetition -> outcomes.
    outcomes: Callable[[Sequence[dict]], Outcomes]
    #: Outcomes -> ``(work, calls of timed)`` per point (sweep point, quant
    #: point), in call order; work is simulated steps or analyzed nodes.
    points: Callable[[Outcomes], List[Tuple[int, int]]]
    #: Operations (trials, quant points) one outcome stands for.
    weight: int
    #: Operations in one repetition.
    operations: int
    #: One outcome -> does it pass the command's own gates?
    gate: Callable[[Dict[str, object]], bool]
    #: (observed, reference) outcome -> do they agree?
    agrees: Callable[[Dict[str, object], Dict[str, object]], bool]
    #: Functions whose entry and exit cut the timed calls into pieces, on top
    #: of the stop-predicate checks (``tracing.py --pieces``).
    marks: Tuple[str, ...] = ()


def _close(observed: object, expected: object, rel: float = 1e-9) -> bool:
    if observed is None or expected is None:
        return observed is expected
    return math.isclose(float(observed), float(expected), rel_tol=rel, abs_tol=rel)


def scaling_ring(sizes: Sequence[int] = (32, 64, 128), trials: int = 1) -> Workload:
    """``scaling --sizes 32,64,128``: P_PL and the [28] baseline."""

    def command(seed: int, max_steps: int = MAX_STEPS) -> List[List[str]]:
        return [["-m", "repro.cli", "scaling", "--sizes", ",".join(map(str, sizes)),
                 "--trials", str(trials), "--check-interval", "128",
                 "--max-steps", str(max_steps), "--seed", str(seed),
                 "--format", "json"]]

    def outcomes(payloads: Sequence[dict]) -> Outcomes:
        return {f"{series['protocol']} n={size}": {"mean_steps": mean,
                                                   "best_fit": series["best_fit"]}
                for series in payloads[0]["series"]
                for size, mean in zip(series["sizes"], series["mean_steps"])}

    def points(outcomes: Outcomes) -> List[Tuple[int, int]]:
        # A point's mean is over its converged trials; with no converged
        # trial (mean null) every trial ran the whole budget.  The sweep runs
        # its points in the order it reports them, one call per trial.
        return [(round(entry["mean_steps"] * trials)
                 if entry["mean_steps"] is not None else MAX_STEPS * trials, trials)
                for entry in outcomes.values()]

    return Workload(
        name="scaling-ring", unit="steps", timed=TRIAL,
        commands=command, setup=lambda seed: command(seed, max_steps=0),
        outcomes=outcomes, points=points,
        weight=trials, operations=2 * len(sizes) * trials,
        gate=lambda entry: True,
        agrees=lambda observed, expected: (
            observed["best_fit"] == expected["best_fit"]
            and _close(observed["mean_steps"], expected["mean_steps"])),
    )


def _trial_gate(entry: Dict[str, object]) -> bool:
    """A trial either converged within the budget or ran all of it: a budget
    miss is an output, not a failure."""
    steps = entry["steps"]
    return 0 <= steps <= MAX_STEPS and (entry["converged"] or steps == MAX_STEPS)


def angluin_ring(size: int = 129, trials: int = 5) -> Workload:
    """``run angluin-modk --sizes 129``: the Table-1 [5] row."""

    def command(seed: int, max_steps: int = MAX_STEPS) -> List[List[str]]:
        return [["-m", "repro.cli", "run", "angluin-modk", "--sizes", str(size),
                 "--trials", str(trials), "--max-steps", str(max_steps),
                 "--seed", str(seed), "--format", "json"]]

    def outcomes(payloads: Sequence[dict]) -> Outcomes:
        (result,) = payloads[0]["results"]
        return {f"trial {trial['trial']}": {"steps": trial["steps"],
                                            "converged": trial["converged"]}
                for trial in result["trials"]}

    return Workload(
        name="angluin-ring", unit="steps", timed=TRIAL,
        commands=command, setup=lambda seed: command(seed, max_steps=0),
        outcomes=outcomes,
        points=lambda outcomes: [(sum(entry["steps"] for entry in outcomes.values()),
                                  trials)],
        weight=1, operations=trials,
        gate=_trial_gate,
        agrees=lambda observed, expected: observed == expected,
    )


#: ``check --quant`` argv of the CI quant smoke's yokota2021 points: the
#: z-gated full-graph point and the quotient point (z-gated here as well).
#: The smoke's angluin-modk n=3 point is left out: one run of it takes
#: 35-100 s on a 2-core host, so a run would hold one repetition and its
#: traced run could outlive the deadline (README.md, "Deliberately
#: unmeasured").
QUANT_POINTS = (
    ("yokota2021", "--n", "2"),
    ("yokota2021", "--n", "2", "--symmetry", "force"),
)


def _quant_outcomes(points: Sequence[Sequence[str]],
                    payloads: Sequence[dict]) -> Outcomes:
    """One outcome per point, keyed by its ``check --quant`` arguments."""
    outcomes: Outcomes = {}
    for argv, payload in zip(points, payloads, strict=True):
        (point,) = payload["report"]["points"]
        expected = point.get("expected_steps", {})
        solver = point.get("solver", {})
        outcomes[" ".join(argv)] = {
            "status": point["status"],
            "analyzed_nodes": point.get("analyzed_nodes"),
            "sweeps": solver.get("sweeps"),
            "transient": solver.get("transient"),
            "residual": solver.get("residual"),
            **{name: expected.get(name, {}).get("value")
               for name in ("canonical", "uniform", "worst")},
            # The mean of the replayed executor trials: their step counts.
            "simulated_mean": point.get("cross_validation", {}).get("simulated_mean"),
        }
    return outcomes


def _quant_agrees(observed: Dict[str, object], expected: Dict[str, object]) -> bool:
    """Counts and the replayed trials' mean exactly; expectations within
    what both solves certify.

    A solve with residual r has values within r * (largest expected time)
    of the exact ones, so two solves agree within the sum of those bounds.
    """
    if any(observed[key] != expected[key]
           for key in ("status", "analyzed_nodes", "sweeps", "transient",
                       "simulated_mean")):
        return False
    slack = ((float(observed["residual"]) + float(expected["residual"]))
             * max(float(expected["worst"]), 1.0))
    return all(abs(float(observed[key]) - float(expected[key]))
               <= slack + 1e-12 * abs(float(expected[key]))
               for key in ("canonical", "uniform", "worst"))


def quant_gate(points: Sequence[Sequence[str]] = QUANT_POINTS) -> Workload:
    """``check --quant`` at each point, the seed passed to ``quant_spec``."""

    def commands(seed: int, max_configs: Optional[int] = None) -> List[List[str]]:
        budget = [] if max_configs is None else ["--max-configs", str(max_configs)]
        return [["perfbench/quant_point.py", *point, "--seed", str(seed), *budget]
                for point in points]

    return Workload(
        name="quant-gate", unit="nodes", timed="repro.check.quant:quant_spec",
        # A one-node budget stops each point once its encoder is built.
        commands=commands, setup=lambda seed: commands(seed, max_configs=1),
        outcomes=lambda payloads: _quant_outcomes(points, payloads),
        # One quant_spec call per point.
        points=lambda outcomes: [(entry["analyzed_nodes"] or 0, 1)
                                 for entry in outcomes.values()],
        weight=1, operations=len(points),
        gate=lambda entry: entry["status"] == "verified",
        agrees=_quant_agrees,
        marks=(TRIAL, "repro.check.model:select_point",
               "repro.check.probability:hitting_times"),
    )


#: Every workload ``run.py`` can run.  BENCHMARK.json gates all but
#: ``angluin-ring``, whose figures moved with the host by more than the
#: bound (README.md, "Workloads"); it is kept for comparisons by hand.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (scaling_ring(), angluin_ring(), quant_gate())
}


def load_reference(name: str, directory: Path = REFERENCES) -> Outcomes:
    with open(directory / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)["outcomes"]
