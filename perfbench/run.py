"""Benchmark: end-to-end and per-layer performance of the repro-ssle commands.

    python3 perfbench/run.py --workload scaling-ring --seed 7 --seconds 50 --trace 0

runs one workload (see ``workloads.py`` and ``README.md``) from the root of a
checkout and prints its metrics, one per line with unit and base, and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` repeats the workload, each repetition a fresh process, until
``--seconds`` have passed, with a set-up measurement (the same commands with
a zero work budget) after each, and reports the end-to-end metrics from the
fastest run of each piece of the work and of each set-up command (see
:func:`timed_run`).  ``--trace 1`` runs the workload once untraced and once
traced (``tracing.py``) and reports the per-layer metrics.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when nothing was measured (no result): the
program cannot run at all, or a command was still running at the deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS, Outcomes, Workload, load_reference

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracing.py"

#: A run ends well inside the 180 s its caller allows; a process still
#: running at this point is killed and the run measures nothing.
RUN_DEADLINE_S = 170.0
#: Set-up is measured at least this many times per run (fastest reported),
#: and after each repetition until set-up runs have taken this share of the
#: time repetitions have: each set-up run is a single sample, so a workload
#: with a short set-up takes many.
MIN_SETUPS = 7
SETUP_SHARE = 0.1
#: Host-drift probe: a fixed pure-Python loop timed before and after a run.
DRIFT_ITERATIONS = 2_000_000

#: The end-to-end metrics of the JSON result (BENCHMARK.json ``end_to_end``).
GATED = ("setup_s", "work_per_s", "peak_rss_mb")


class NotMeasured(Exception):
    """A command outlived the run's deadline: a slow host, not a wrong output."""


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    #: Durations of the pieces of the work, in order (timed runs only).
    pieces: Optional[List[float]] = None


@dataclass
class Rep:
    """One run of a workload's commands, checked."""

    processes: List[Process]
    outcomes: Optional[Outcomes]
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(process.wall_s for process in self.processes)

    @property
    def cpu_s(self) -> float:
        return sum(process.cpu_s for process in self.processes)

    @property
    def rss_mb(self) -> float:
        return max(process.rss_mb for process in self.processes)


class Runner:
    """Launches the workload's processes from the checkout root and reaps
    each with its own resource usage."""

    def __init__(self, scratch: Path, started: float) -> None:
        self._scratch = scratch
        self._deadline = started + RUN_DEADLINE_S
        self._count = 0
        env = {key: value for key, value in os.environ.items()
               if key != "REPRO_STORE"}  # no results store: every trial runs
        # One thread: numpy's BLAS would otherwise start one per core.  A
        # fixed hash seed keeps the order of set and dict walks, and so the
        # pieces of the work, the same in every process.
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._env = env

    def launch(self, argv: Sequence[str]) -> Process:
        self._count += 1
        out_path = self._scratch / f"{self._count}.out"
        err_path = self._scratch / f"{self._count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self._env,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            lock = threading.Lock()
            reaped = False
            killed = False

            def kill() -> None:
                nonlocal killed
                with lock:
                    if not reaped:
                        proc.kill()
                        killed = True

            timer = threading.Timer(max(self._deadline - start, 0.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()  # interrupted: stop the child and wait for it to end
                os.waitpid(proc.pid, 0)
                raise
            finally:
                with lock:
                    reaped = True
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if killed:
            raise NotMeasured(f"still running at the {RUN_DEADLINE_S:.0f} s deadline "
                              f"after {wall:.1f} s: {' '.join(argv)}")
        return Process(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                       rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                       stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                       stderr=err_path.read_text(encoding="utf-8", errors="replace"))

    def launch_pieces(self, argv: Sequence[str], workload: Workload,
                      whole: bool = False) -> Process:
        """``argv`` run by ``tracing.py --pieces``: the process, with the
        durations of the pieces of the workload's timed unit, or of the
        whole command."""
        pieces_file = self.spans_path()
        unit = [] if whole else ["--unit", workload.timed]
        marks = [arg for mark in workload.marks for arg in ("--mark", mark)]
        process = self.launch([str(TRACER), "--pieces", str(pieces_file),
                               *unit, *marks, "--", *argv])
        try:
            process.pieces = json.loads(pieces_file.read_text(encoding="utf-8"))["pieces"]
        except (OSError, ValueError, KeyError):
            process.pieces = None  # the command failed; _check reports it
        return process

    def remaining(self) -> float:
        return self._deadline - time.perf_counter()

    def spans_path(self) -> Path:
        self._count += 1
        return self._scratch / f"{self._count}.spans.json"


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #
def _check(workload: Workload, processes: List[Process],
           reference: Optional[Outcomes], baseline: Optional[Outcomes]) -> Rep:
    """Parse and check one repetition's outputs.

    ``reference`` is the committed reference (default seed only);
    ``baseline`` the outcomes this repetition must repeat exactly (the
    first repetition of the run, or the untraced run for the traced one).
    """
    failures = [process for process in processes if process.code != 0]
    try:
        if failures:
            raise ValueError(f"exit {failures[0].code}: "
                             + failures[0].stderr.strip()[-400:])
        outcomes = workload.outcomes([json.loads(process.stdout)
                                      for process in processes])
    except (ValueError, KeyError, TypeError, IndexError) as error:
        return Rep(processes, None, failed=workload.operations,
                   notes=[f"unreadable output: {error}"])
    rep = Rep(processes, outcomes)
    expected_keys = set(reference or baseline or outcomes)
    for key in sorted(expected_keys | set(outcomes)):
        entry = outcomes.get(key)
        problems = []
        if entry is None or key not in expected_keys:
            problems.append("missing" if entry is None else "unexpected")
        else:
            if not workload.gate(entry):
                problems.append("own gate failed")
            if reference is not None and not workload.agrees(entry, reference[key]):
                problems.append("disagrees with the reference")
            if baseline is not None and entry != baseline.get(key):
                problems.append("does not repeat")
        if problems:
            rep.failed += workload.weight
            rep.notes.append(f"{key}: {', '.join(problems)} ({entry})")
    return rep


def _drift_probe() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(DRIFT_ITERATIONS):
        total += value
    return time.perf_counter() - start


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def _rep(runner: Runner, workload: Workload, seed: int,
         reference: Optional[Outcomes], baseline: Optional[Outcomes],
         timed: bool = False) -> Rep:
    if timed:
        processes = [runner.launch_pieces(argv, workload)
                     for argv in workload.commands(seed)]
    else:
        processes = [runner.launch(argv) for argv in workload.commands(seed)]
    return _check(workload, processes, reference, baseline)


def _setup(runner: Runner, workload: Workload, seed: int) -> Tuple[List[Process], List[str]]:
    """One run of the set-up commands, each cut into pieces whole, and a note
    per failed command."""
    processes = [runner.launch_pieces(argv, workload, whole=True)
                 for argv in workload.setup(seed)]
    notes = [f"set-up command exited {process.code}: {process.stderr.strip()[-400:]}"
             for process in processes if process.code != 0]
    return processes, notes


def _setup_s(setups: List[List[Process]]) -> float:
    """Sum over the set-up commands of the fastest time outside the pieces
    (interpreter start and exit) plus each piece's fastest run.  A run whose
    pieces do not line up with the first one's adds only its outside time."""
    total = 0.0
    for runs in zip(*setups):
        total += min(run.wall_s - sum(map(sum, run.pieces or ())) for run in runs)
        shape = [len(call) for call in runs[0].pieces or ()]
        aligned = [run.pieces for run in runs
                   if [len(call) for call in run.pieces or ()] == shape]
        total += sum(min(durations) for call in zip(*aligned)
                     for durations in zip(*call))
    return total


def _fastest_calls(reps: List[Rep]) -> Tuple[List[float], int, List[str]]:
    """The time of each timed call (those of every command, in order) as the
    sum over its pieces of each piece's fastest run; the number of pieces;
    and a note per repetition whose pieces do not line up with the first
    one's (it fails: the program did not repeat itself).

    Piece ``i`` of call ``c`` is the same work in every repetition
    (``tracing.py``, ``--pieces``).
    """
    def calls(rep: Rep) -> List[List[float]]:
        return [call for process in rep.processes for call in process.pieces or ()]

    shape = [len(call) for call in calls(reps[0])]
    runs: List[List[List[float]]] = []
    notes = []
    for number, rep in enumerate(reps):
        pieces = calls(rep)
        if [len(call) for call in pieces] == shape:
            runs.append(pieces)
        else:
            rep.failed = max(rep.failed, 1)
            notes.append(f"repetition {number}: {len(pieces)} timed calls of "
                         f"{sum(map(len, pieces))} pieces; the first made "
                         f"{len(shape)} of {sum(shape)}")
    times = [sum(min(durations) for durations in zip(*call)) for call in zip(*runs)]
    return times, sum(shape), notes


def _rate(points: List[Tuple[int, int]], times: List[float]) -> Tuple[float, str]:
    """Work per second as if every point did the same work: the harmonic
    mean over the points of each point's work ÷ its time.  ``points`` are
    ``(work, timed calls)`` in call order.

    The seed changes how the work splits between points that run at very
    different speeds (a P_PL step costs about 2.5 baseline steps), and the
    mean does not move with that split.  When the calls do not match the
    points, it is all the work ÷ all the time.
    """
    total = sum(work for work, _ in points)
    if sum(calls for _, calls in points) != len(times):
        seconds = sum(times)
        return (total / seconds if seconds > 0 else 0.0,
                f"{total} / {seconds:.4f} s ({len(times)} timed calls for "
                f"{len(points)} points: not split by point)")
    per_work = []
    start = 0
    for work, calls in points:
        seconds = sum(times[start:start + calls])
        start += calls
        if work > 0:
            per_work.append(seconds / work)
    if not per_work or sum(per_work) <= 0:
        return 0.0, "no work"
    return (len(per_work) / sum(per_work),
            f"harmonic mean over {len(per_work)} points of work / time "
            f"({total} in {sum(times):.4f} s)")


def _range(values) -> str:
    values = sorted(values)
    return f"; {len(values)} from {values[0]:.4f} to {values[-1]:.4f}"


def timed_run(runner: Runner, workload: Workload, seed: int, seconds: float,
              reference: Optional[Outcomes]):
    """Repetitions until ``seconds`` have passed; end-to-end metrics.

    The gated times are sums of fastest samples: a call's time is the sum
    over its pieces (on ``scaling-ring`` about a millisecond each, the steps
    between two stop-predicate checks) of each piece's fastest run, and
    set-up is cut into pieces the same way (:func:`_setup_s`).  A shared
    host only ever adds time, and it speeds up and slows down within
    milliseconds, so the fastest run of a short piece is close to what the
    program needs even in a run where the host is slow most of the time;
    the fastest of whole repetitions, or of whole trials, is not
    (README.md, "Steadiness").
    """
    notes: List[str] = []
    setups: List[List[Process]] = []
    reps: List[Rep] = []

    def setup() -> None:
        processes, problems = _setup(runner, workload, seed)
        setups.append(processes)
        notes.extend(problems)

    setup()
    deadline = time.perf_counter() + seconds
    while True:
        baseline = reps[0].outcomes if reps else None
        reps.append(_rep(runner, workload, seed, reference, baseline, timed=True))
        setup()
        while (sum(run.wall_s for runs in setups for run in runs)
               < SETUP_SHARE * sum(rep.wall_s for rep in reps) and not notes):
            setup()
        if reps[-1].outcomes is None:
            break  # the program failed; more repetitions measure nothing
        if time.perf_counter() >= deadline:
            break
        if runner.remaining() < 2 * reps[-1].wall_s:
            break  # another repetition could outlive the run's deadline
    while len(setups) < MIN_SETUPS:
        setup()
    times, pieces, problems = (([], 0, []) if reps[-1].outcomes is None
                               else _fastest_calls(reps))
    notes.extend(problems)
    setup_s = _setup_s(setups)
    rate, how = _rate(workload.points(reps[0].outcomes) if times else [], times)
    named = "steps_per_s" if workload.unit == "steps" else "nodes_per_s"
    metrics = {
        "wall_s": (statistics.median(rep.wall_s for rep in reps), "s",
                   "median repetition" + _range(rep.wall_s for rep in reps)),
        "setup_s": (setup_s, "s", "zero-budget run: fastest start and exit plus "
                    "fastest run of each piece" + _range(
                        sum(run.wall_s for run in runs) for runs in setups)),
        "cpu_s": (statistics.median(rep.cpu_s for rep in reps), "s",
                  "user + system, median"),
        "peak_rss_mb": (statistics.median(rep.rss_mb for rep in reps), "MB",
                        "largest process, median"),
        named: (rate, "1/s", f"{workload.unit}: {how}; a call's time is the "
                             f"fastest of {len(reps)} runs of each of its pieces "
                             f"({pieces} pieces)"),
        "work_per_s": (rate, "1/s", f"{named}, under the name every workload shares"),
    }
    return metrics, reps, notes


def _layer_metrics(traces: List[dict], traced_wall: float,
                   untraced_wall: float) -> Dict[str, Tuple[Optional[float], str, str]]:
    """Per-layer metrics summed over the workload's traced processes; a value
    of ``None`` marks a layer whose wrapped function is absent."""
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    absent = set()  # spans whose wrapped functions the program no longer has
    for trace in traces:
        for name, stats in trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += stats[key]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        absent.update(trace["absent_spans"])

    def stat(span: str, key: str) -> Optional[float]:
        return None if span in absent else spans.get(span, {}).get(key, 0)

    def count(span: str, counter: str) -> Optional[int]:
        return None if span in absent else counters.get(counter, 0)

    def ratio(num: Optional[int], den: Optional[int], what: str):
        if num is None or den is None:
            return None, "1", ""
        return (num / den if den else 0.0), "1", f"{num}/{den} {what}"

    metrics: Dict[str, Tuple[Optional[float], str, str]] = {
        "cli.import_s": (stat("cli.import", "self_s"), "s", "entry module"),
        "cli.numpy_import_s": (stat("cli.numpy_import", "total_s"), "s", ""),
        "api.registry.build_s": (stat("api.registry.build", "total_s"), "s",
                                 "protocol, population, configuration, predicate"),
        "api.registry.build_simulation_s": (
            stat("api.registry.build_simulation", "total_s"), "s", ""),
        "api.executor.trials": (stat("api.executor.execute_trial", "calls"), "count", ""),
        "api.executor.overhead_s": (stat("api.executor.execute_trial", "self_s"), "s",
                                    "execute_trial self time"),
        "core.encoding.build_s": (stat("core.encoding.build", "total_s"), "s", ""),
        "core.encoding.builds": (count("core.encoding.build", "core.encoding.builds"),
                                 "count", "successful"),
        "core.encoding.states": (count("core.encoding.build", "core.encoding.states"),
                                 "count", "summed over builds"),
    }
    for layer in ("core.simulator", "core.fast_simulator"):
        span = f"{layer}.run_until"
        metrics[f"{layer}.self_s"] = (stat(span, "self_s"), "s", "run_until self time")
        metrics[f"{layer}.steps"] = (count(span, f"{layer}.steps"), "count", "")
        metrics[f"{layer}.effective_share"] = ratio(
            count(span, f"{layer}.effective"), count(span, f"{layer}.steps"),
            "steps changed a state")
    metrics.update({
        "protocols.transition_s": (stat("protocols.transition", "total_s"), "s", ""),
        "protocols.transition_calls": (stat("protocols.transition", "calls"), "count", ""),
        "protocols.predicate_s": (stat("protocols.predicate", "total_s"), "s", ""),
        "protocols.predicate_calls": (stat("protocols.predicate", "calls"), "count", ""),
        "protocols.predicate_hit_share": ratio(
            count("protocols.predicate", "protocols.predicate.hits"),
            stat("protocols.predicate", "calls"), "calls satisfied"),
        "check.model.select_s": (stat("check.model.select_point", "total_s"), "s", ""),
        "check.symmetry.quotient_s": (stat("check.symmetry.quotient", "total_s"), "s", ""),
        "check.symmetry.orbits": (count("check.symmetry.quotient",
                                        "check.symmetry.orbits"), "count", ""),
        "check.probability.solve_s": (
            stat("check.probability.hitting_times", "total_s"), "s", "hitting_times"),
        "check.probability.sweeps": (count("check.probability.hitting_times",
                                           "check.probability.sweeps"), "count", ""),
        "check.probability.transient": (count("check.probability.hitting_times",
                                              "check.probability.transient"), "count", ""),
        "check.quant.cross_validate_s": (
            stat("check.quant.cross_validate", "total_s"), "s", ""),
    })
    covered = sum(trace["top_s"] + trace["install_s"] for trace in traces)
    metrics["trace.unattributed_s"] = (
        traced_wall - covered, "s",
        f"traced wall {traced_wall:.4f} s - {covered:.4f} s in spans or tracer set-up")
    metrics["trace.overhead_s"] = (
        traced_wall - untraced_wall, "s",
        f"traced wall {traced_wall:.4f} s - untraced wall {untraced_wall:.4f} s")
    return metrics


def traced_run(runner: Runner, workload: Workload, seed: int,
               reference: Optional[Outcomes]):
    """One untraced and one traced repetition; per-layer metrics."""
    untraced = _rep(runner, workload, seed, reference, None)
    spans_files = []
    processes = []
    for argv in workload.commands(seed):
        spans_file = runner.spans_path()
        spans_files.append(spans_file)
        processes.append(runner.launch([str(TRACER), "--spans", str(spans_file),
                                        "--", *argv]))
    traced = _check(workload, processes, None, untraced.outcomes)
    traces = []
    for spans_file in spans_files:
        try:
            traces.append(json.loads(spans_file.read_text(encoding="utf-8")))
        except (OSError, ValueError) as error:
            traced.failed = max(traced.failed, workload.operations)
            traced.notes.append(f"no spans written: {error}")
    metrics = (_layer_metrics(traces, traced.wall_s, untraced.wall_s)
               if len(traces) == len(spans_files) else {})
    return metrics, [untraced, traced], []


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def _format(value: Optional[float]) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int) or float(value).is_integer() and abs(value) > 1:
        return str(int(value))
    return f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None,
         workloads: Dict[str, Workload] = WORKLOADS,
         references: Path = REFERENCES) -> int:
    """Run the benchmark; tests pass tiny ``workloads`` or other ``references``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    reference = (load_reference(workload.name, references)
                 if args.seed == DEFAULT_SEED else None)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        runner = Runner(Path(scratch), started)
        try:
            # Untimed warm-up: fills the byte-code caches, which users do not
            # pay for on every run, and proves the program starts at all.
            _, problems = _setup(runner, workload, args.seed)
            if problems:
                print("perfbench: the program does not start: " + problems[0],
                      file=sys.stderr)
                return 2
            drift_before = _drift_probe()
            if args.trace:
                metrics, reps, notes = traced_run(runner, workload, args.seed, reference)
                gated = list(metrics)
            else:
                metrics, reps, notes = timed_run(runner, workload, args.seed,
                                                 args.seconds, reference)
                gated = GATED
        except NotMeasured as error:
            print(f"perfbench: not measured: {error}", file=sys.stderr)
            return 2
        drift_after = _drift_probe()

    attempted = workload.operations * len(reps)
    failed = sum(rep.failed for rep in reps)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  ({time.perf_counter() - started:.1f} s)")
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:<36} {_format(value):>14} {unit:<6} {base}")
    print(f"  {'failed_share':<36} {_format(failed / attempted):>14} {'1':<6} "
          f"{failed}/{attempted} operations")
    print(f"  {'host_drift_loop_s':<36} before {drift_before:.4f} after {drift_after:.4f}"
          f"  ({DRIFT_ITERATIONS} iterations; a diagnostic, not a metric)")
    for note in notes + [note for rep in reps for note in rep.notes]:
        print(f"  check: {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0 if metrics[name][0] is None else metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in gated},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
