"""Command-line interface: run any registered protocol or paper experiment.

Installed as ``repro-ssle``.  The CLI is built on argparse subparsers with
per-command options and is driven by the :mod:`repro.api` registry, so any
protocol registered there is runnable with no CLI edits:

* ``repro-ssle list``         — enumerate the registered protocol specs
* ``repro-ssle run <name>``   — run any registered protocol (``--family``,
  ``--workers`` for parallel trials)
* ``repro-ssle table1``       — the Table-1 comparison
* ``repro-ssle scaling``      — the Theorem-3.1 scaling sweep and growth-law fits
* ``repro-ssle detection``    — leader-absence detection times (Lemma 3.7)
* ``repro-ssle elimination``  — leader elimination times (Lemma 4.11)
* ``repro-ssle orientation``  — ring orientation (Theorem 5.2) and its substrate
* ``repro-ssle figure1``      — the segment-ID embedding rendering
* ``repro-ssle figure2``      — the token trajectory
* ``repro-ssle demo``         — a single annotated convergence run
* ``repro-ssle check``        — model-check the self-stabilization claims of
  registered simulated specs on their explicit configuration graphs
  (closure, stabilization reachability, livelock freedom; see
  :mod:`repro.check`)
* ``repro-ssle cache``        — inspect/clear the content-addressed results store
* ``repro-ssle serve``        — the experiment service: a job-lifecycle
  HTTP/JSON API over one warm, shared worker pool (see
  :mod:`repro.service`)
* ``repro-ssle store-serve``  — put a results-store directory on the wire
  (GET/PUT records by digest, never-shrink merge server-side)
* ``repro-ssle fabric-serve`` — the sweep coordinator: workers claim points
  under TTL leases; expired leases are reclaimed (see :mod:`repro.fabric`)
* ``repro-ssle work``         — a fabric worker: claim, heartbeat, execute,
  write back through the store, repeat

Every command accepts ``--format {text,json}``; JSON output is sanitised
(non-finite floats become ``null``) so the results are machine-consumable.
Sweep commands additionally accept ``--sizes``, ``--trials``, ``--max-steps``,
``--kappa-factor``, ``--check-interval`` and ``--seed``.

``run``/``table1``/``scaling`` accept ``--store PATH|URL`` (default: the
``REPRO_STORE`` environment variable; off when neither is set): trial
batches whose content address matches a stored record are served
bit-identically instead of recomputed, missing trials top the record up,
and ``--no-store-write`` makes the store read-only.  An ``http://`` value
selects a ``store-serve`` daemon instead of a local directory — reads and
writes then retry with backoff and degrade to recompute-on-miss, never
failing the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    ExperimentConfig,
    evaluate_analytic,
    experiment,
    get_spec,
    list_specs,
)
from repro.api.config import DEFAULT_TOPOLOGY, freeze_topology_params
from repro.core.errors import StateSpaceError, TopologyError
from repro.core.fast_simulator import ENGINES
from repro.experiments.reporting import format_table, jsonable
from repro.scenario.spec import parse_scenario, scenario_names
from repro.topology.registry import parse_topology, topology_names, validate_topology

#: Handler result: (rendered text, JSON-ready payload).
CommandOutput = Tuple[str, Dict[str, object]]


class CommandError(Exception):
    """A user-input problem a handler wants reported as a usage error.

    Only this type is routed to ``parser.error`` — anything else a handler
    raises is an internal failure and keeps its traceback.
    """


# ---------------------------------------------------------------------- #
# Argument types
# ---------------------------------------------------------------------- #
def _parse_sizes(raw: str) -> List[int]:
    """Comma-separated ring sizes, validated, deduplicated, and sorted."""
    sizes = [int(part) for part in raw.split(",") if part.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("at least one ring size is required")
    if any(size < 2 for size in sizes):
        raise argparse.ArgumentTypeError("ring sizes must be >= 2")
    return sorted(set(sizes))


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _non_negative_float(raw: str) -> float:
    value = float(raw)
    if not (value >= 0):  # also rejects NaN
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {raw}")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not (value > 0):  # also rejects NaN
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {raw}")
    return value


def _parse_scenario_arg(raw: str):
    """``--scenario`` value → canonical phase tuple (usage error on defects)."""
    try:
        return parse_scenario(raw)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ssle",
        description="Reproduction experiments for the PODC 2023 SS-LE ring protocol",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--sizes", type=_parse_sizes, default=[8, 16, 32],
                       help="comma-separated ring sizes, deduplicated and sorted "
                            "(default: 8,16,32)")
    sweep.add_argument("--trials", type=_positive_int, default=3,
                       help="independent trials per data point (default: 3)")
    sweep.add_argument("--max-steps", type=_non_negative_int, default=2_000_000,
                       help="step budget per trial (default: 2,000,000)")
    sweep.add_argument("--kappa-factor", type=_positive_int, default=4,
                       help="the constant c1 in kappa_max = c1*psi (default: 4; paper: 32)")
    sweep.add_argument("--check-interval", type=_positive_int, default=128,
                       help="steps between stop-predicate checks (default: 128)")
    sweep.add_argument("--seed", type=int, default=2023, help="master random seed")
    sweep.add_argument("--engine", choices=ENGINES, default="auto",
                       help="simulation engine: auto runs the batched engine's "
                            "lazily filled transition table; results are "
                            "bit-identical on both engines (default: auto)")

    topo = argparse.ArgumentParser(add_help=False)
    topo.add_argument("--topology", default=DEFAULT_TOPOLOGY, metavar="NAME[:K=V,...]",
                      help="population topology from the topology registry, with "
                           "optional integer parameters, e.g. 'complete', "
                           "'torus:width=4,height=3', 'random-regular:degree=4,seed=7' "
                           f"(default: {DEFAULT_TOPOLOGY}; "
                           f"registered: {', '.join(topology_names())})")

    storage = argparse.ArgumentParser(add_help=False)
    storage.add_argument("--store", default=None, metavar="PATH|URL",
                         help="content-addressed results store: trial "
                              "batches already stored are served bit-identically "
                              "instead of recomputed, fresh ones are written back. "
                              "A directory path uses local records; an http:// "
                              "URL speaks to a `repro-ssle store-serve` daemon "
                              "with bounded retry+backoff, degrading to "
                              "recompute-on-miss when it is unreachable "
                              "(default: the REPRO_STORE environment variable; "
                              "store off when neither is set)")
    storage.add_argument("--no-store-write", action="store_true",
                         help="serve cached trials but write nothing back "
                              "(requires a store via --store or REPRO_STORE)")

    subparsers.add_parser(
        "list", parents=[fmt],
        help="enumerate the registered protocol specs",
    )

    run = subparsers.add_parser(
        "run", parents=[sweep, topo, storage, fmt],
        help="run any registered protocol (see `repro-ssle list`)",
    )
    run.add_argument("protocol", help="a protocol spec name from `repro-ssle list`")
    run.add_argument("--family", default=None,
                     help="initial-configuration family (default: the spec's default)")
    run.add_argument("--scenario", type=_parse_scenario_arg, default=None,
                     metavar="NAME[:K=V,...]",
                     help="phased scenario from the scenario catalog, with "
                          "optional integer parameters, e.g. "
                          "'corrupt-recover:k=3', 'churn-recover:leave=1,join=2', "
                          "'bias-recover:weight=4'; each trial then runs every "
                          "phase (perturb, then re-converge) and reports a "
                          "per-phase breakdown (default: none — one plain "
                          f"convergence; registered: {', '.join(scenario_names())})")
    run.add_argument("--workers", type=_positive_int, default=1,
                     help="processes for parallel trials (default: 1 = serial)")

    table1 = subparsers.add_parser("table1", parents=[sweep, storage, fmt],
                                   help="the Table-1 comparison")
    table1.add_argument("--workers", type=_positive_int, default=1,
                        help="processes shared by all table cells' trials "
                             "(default: 1 = serial)")
    scaling = subparsers.add_parser("scaling", parents=[sweep, topo, storage, fmt],
                                    help="the Theorem-3.1 scaling sweep")
    scaling.add_argument("--leaderless", action="store_true",
                         help="start P_PL from the leaderless trap instead of "
                              "uniform adversarial configurations")
    scaling.add_argument("--no-baseline", action="store_true",
                         help="skip the [28] baseline head-to-head")
    scaling.add_argument("--workers", type=_positive_int, default=1,
                         help="processes shared by the whole sweep's trials, "
                              "across all (protocol, n) points "
                              "(default: 1 = serial)")
    scaling.add_argument("--progress", action="store_true",
                         help="print one line to stderr as each "
                              "(protocol, n) sweep point completes")
    subparsers.add_parser("detection", parents=[sweep, fmt],
                          help="leader-absence detection times (Lemma 3.7)")
    subparsers.add_parser("elimination", parents=[sweep, fmt],
                          help="leader elimination times (Lemma 4.11)")
    subparsers.add_parser("orientation", parents=[sweep, fmt],
                          help="ring orientation (Theorem 5.2)")
    subparsers.add_parser("figure1", parents=[sweep, fmt],
                          help="the segment-ID embedding rendering")
    figure2 = subparsers.add_parser("figure2", parents=[fmt],
                                    help="the token trajectory")
    figure2.add_argument("--psi", type=_positive_int, default=4,
                         help="the knowledge parameter psi (default: 4)")
    subparsers.add_parser("demo", parents=[sweep, fmt],
                          help="a single annotated convergence run "
                               "(smallest --sizes entry; --trials is ignored)")
    check = subparsers.add_parser(
        "check", parents=[fmt],
        help="model-check self-stabilization claims (closure, "
             "reachability, livelock freedom) on the configuration graph",
    )
    check.add_argument("protocol", nargs="?", default=None,
                       help="a simulated protocol spec name (default: "
                            "check every registered simulated spec)")
    check.add_argument("--n", type=_positive_int, default=None,
                       help="check exactly this population size (default: "
                            "the largest feasible n per topology under "
                            "--max-configs; requires a protocol)")
    check.add_argument("--topology", default=None, metavar="NAME",
                       help="restrict the check to one topology "
                            f"(known: {', '.join(topology_names())}; "
                            "default: every supported topology)")
    check.add_argument("--max-configs", type=_positive_int,
                       default=None, metavar="N",
                       help="configuration-count budget per check point "
                            "(default: 1000000; larger buys bigger n at "
                            "pure-python SCC cost)")
    check.add_argument("--max-n", type=_positive_int, default=None,
                       metavar="N",
                       help="population-size ceiling for largest-feasible "
                            "selection (default: 6; symmetry reduction "
                            "makes rings up to ~10-12 feasible)")
    check.add_argument("--symmetry", choices=("auto", "off", "force"),
                       default="auto",
                       help="spend the --max-configs budget on rotation/"
                            "translation orbits instead of raw "
                            "configurations: auto falls back to the "
                            "quotient when only it fits, off never "
                            "quotients, force requires it (default: auto)")
    check.add_argument("--quant", action="store_true",
                       help="quantitative mode: exact expected "
                            "convergence times (canonical / uniform / "
                            "worst-case start) plus an executor "
                            "cross-validation gate asserting the "
                            "simulated mean matches the exact value")
    check.add_argument("--quant-trials", type=_positive_int, default=None,
                       metavar="T",
                       help="trials the --quant cross-validation gate "
                            "runs (default: the spec's policy, 200)")
    check.add_argument("--z", type=_non_negative_float, default=None,
                       metavar="Z",
                       help="z-score tolerance of the --quant gate "
                            "(default: the spec's policy, 4.0)")
    check.add_argument("--no-simulate", action="store_true",
                       help="--quant only: report exact values without "
                            "running the executor gate")
    check.add_argument("--engine", choices=ENGINES, default="auto",
                       help="engine the --quant gate simulates with "
                            "(default: auto)")
    check.add_argument("--store", default=None, metavar="PATH",
                       help="results store warming the --quant gate's "
                            "trials (default: the REPRO_STORE "
                            "environment variable)")
    check.add_argument("--no-store-write", action="store_true",
                       help="read the store but do not write new "
                            "records back")

    cache = subparsers.add_parser(
        "cache", parents=[fmt],
        help="inspect or clear the content-addressed results store",
    )
    cache.add_argument("action", choices=("list", "info", "clear"),
                       help="list: one row per stored record; info: the full "
                            "record for a digest (or a store summary without "
                            "one); clear: delete records (all, a digest "
                            "prefix, only those --older-than DAYS, or the "
                            "oldest beyond a --max-bytes budget)")
    cache.add_argument("digest", nargs="?", default=None,
                       help="record digest, or unambiguous prefix (info: "
                            "required record; clear: restrict deletion)")
    cache.add_argument("--store", default=None, metavar="PATH",
                       help="store root (default: the REPRO_STORE "
                            "environment variable)")
    cache.add_argument("--older-than", type=_non_negative_float, default=None,
                       metavar="DAYS",
                       help="clear only: delete records whose file is at "
                            "least DAYS days old (fractions allowed), "
                            "keeping everything newer")
    cache.add_argument("--max-bytes", type=_non_negative_int, default=None,
                       metavar="N",
                       help="clear only: instead of deleting every matching "
                            "record, evict the oldest (by last write-back) "
                            "until the matching records total at most N bytes")

    serve = subparsers.add_parser(
        "serve", parents=[storage, fmt],
        help="run the experiment service (HTTP/JSON job-lifecycle API "
             "over one warm worker pool)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=_non_negative_int, default=8642,
                       help="TCP port to bind; 0 picks an ephemeral port "
                            "(default: 8642)")
    serve.add_argument("--workers", type=_non_negative_int, default=None,
                       help="worker processes in the shared pool; 0 runs "
                            "trials inline (default: the CPU count)")
    serve.add_argument("--max-jobs", type=_positive_int, default=None,
                       help="jobs allowed to run concurrently; the rest "
                            "stay QUEUED (default: unbounded)")

    store_serve = subparsers.add_parser(
        "store-serve", parents=[storage, fmt],
        help="serve a results-store directory over HTTP (GET/PUT records "
             "by digest; never-shrink merge runs server-side)",
    )
    store_serve.add_argument("--host", default="127.0.0.1",
                             help="interface to bind (default: 127.0.0.1)")
    store_serve.add_argument("--port", type=_non_negative_int, default=8651,
                             help="TCP port to bind; 0 picks an ephemeral "
                                  "port (default: 8651)")

    fabric_serve = subparsers.add_parser(
        "fabric-serve", parents=[fmt],
        help="run the sweep coordinator: workers claim points under TTL "
             "leases, heartbeat while executing, and expired leases are "
             "reclaimed for other workers",
    )
    fabric_serve.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default: 127.0.0.1)")
    fabric_serve.add_argument("--port", type=_non_negative_int, default=8652,
                              help="TCP port to bind; 0 picks an ephemeral "
                                   "port (default: 8652)")
    fabric_serve.add_argument("--lease-ttl", type=_positive_float, default=15.0,
                              metavar="SECONDS",
                              help="work-claim lease duration; a worker that "
                                   "stops heartbeating loses its point after "
                                   "this long (default: 15)")
    fabric_serve.add_argument("--max-attempts", type=_positive_int, default=5,
                              help="lease grants per point before the sweep "
                                   "fails with a diagnostic — a point that "
                                   "keeps killing workers must not requeue "
                                   "forever (default: 5)")

    work = subparsers.add_parser(
        "work", parents=[storage, fmt],
        help="serve a fabric coordinator as a worker: claim sweep points, "
             "heartbeat, execute, write results through the shared store",
    )
    work.add_argument("--coordinator", required=True, metavar="URL",
                      help="the `repro-ssle fabric-serve` endpoint to claim "
                           "work from, e.g. http://127.0.0.1:8652")
    work.add_argument("--workers", type=_positive_int, default=1,
                      help="processes for each point's trials "
                           "(default: 1 = in-process)")
    work.add_argument("--poll", type=_positive_float, default=0.5,
                      metavar="SECONDS",
                      help="idle polling interval (default: 0.5)")
    work.add_argument("--drain", action="store_true",
                      help="exit once the coordinator reports no runnable "
                           "sweeps instead of polling forever (CI/batch mode)")
    work.add_argument("--max-points", type=_positive_int, default=None,
                      help="exit after executing this many points "
                           "(default: unbounded)")
    return parser


def _require_auto_engine(args: argparse.Namespace) -> None:
    """Reject ``--engine`` on commands that drive bespoke simulations.

    The detection/elimination/orientation/figure/demo experiments construct
    their own simulations (trajectories, custom stop conditions) on a fixed
    engine — the table engine for ``figure1`` and ``demo``, the step loop
    for the rest; silently ignoring an explicit ``--engine`` there would
    misreport what actually ran.
    """
    if args.engine != "auto":
        raise CommandError(
            f"{args.command!r} drives bespoke simulations on a fixed engine; "
            "--engine does not apply (supported by: run, table1, scaling)"
        )


def _store_from_args(args: argparse.Namespace):
    """The :class:`ResultsStore` the flags/environment select, or ``None``.

    Precedence: ``--store PATH`` wins, the ``REPRO_STORE`` environment
    variable is the fallback, and with neither the store is off —
    ``--no-store-write`` alone is then a usage error (there is nothing to
    not write to).
    """
    from repro.store import resolve_store

    read_only = getattr(args, "no_store_write", False)
    store = resolve_store(getattr(args, "store", None), write=not read_only)
    if store is None and read_only:
        raise CommandError(
            "--no-store-write needs a store; pass --store PATH or set REPRO_STORE"
        )
    return store


def _topology_from_args(args: argparse.Namespace):
    """The ``(name, params)`` of the ``--topology`` flag (absent -> default)."""
    raw = getattr(args, "topology", DEFAULT_TOPOLOGY)
    try:
        return parse_topology(raw)
    except TopologyError as error:
        raise CommandError(str(error)) from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    topology, topology_params = _topology_from_args(args)
    return ExperimentConfig(
        sizes=tuple(args.sizes),
        trials=args.trials,
        max_steps=args.max_steps,
        check_interval=args.check_interval,
        kappa_factor=args.kappa_factor,
        seed=args.seed,
        engine=args.engine,
        topology=topology,
        topology_params=freeze_topology_params(topology_params),
        # Only `run` has --scenario; the other sweep commands drive bespoke
        # experiment harnesses where a phased scenario has no meaning.
        scenario=getattr(args, "scenario", None) or (),
    )


# ---------------------------------------------------------------------- #
# JSON sanitisation (shared with the experiment service's HTTP responses)
# ---------------------------------------------------------------------- #
_jsonable = jsonable


# ---------------------------------------------------------------------- #
# Command handlers: each returns (text, payload)
# ---------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> CommandOutput:
    specs = list_specs()
    rows = [
        {
            "name": spec.name,
            "kind": spec.kind,
            "summary": spec.summary,
            "supported": spec.supported_note if spec.is_simulated else "analytic model",
            "topologies": (list(spec.supported_topologies)
                           if spec.is_simulated and spec.supported_topologies is not None
                           else ("any" if spec.is_simulated else None)),
            "default_family": spec.default_family if spec.is_simulated else None,
            "families": spec.family_names(),
            "reference": spec.reference,
        }
        for spec in specs
    ]
    text = format_table(
        headers=["name", "kind", "supported", "summary"],
        rows=[(row["name"], row["kind"], row["supported"], row["summary"])
              for row in rows],
        title=f"registered protocol specs ({len(rows)})",
    )
    return text, {"command": "list", "protocols": rows}


def _render_run_result(result) -> str:
    table = format_table(
        headers=["trial", "steps", "converged", "engine", "wall time (s)"],
        rows=[(trial.trial, trial.steps, trial.converged, trial.engine, trial.wall_time)
              for trial in result.trials],
        title=(f"{result.protocol} on {result.topology} n={result.population_size} "
               f"(family={result.family}, seed={result.seed}, workers={result.workers})"),
    )
    mean = result.mean_steps()
    summary = (f"mean steps = {mean:.1f}" if math.isfinite(mean)
               else "mean steps = n/a (no trial converged)")
    if result.failures:
        summary += f", failures = {result.failures}/{result.trial_count}"
    if any(trial.phases for trial in result.trials):
        phases = format_table(
            headers=["trial", "phase", "perturbation", "steps", "converged", "n"],
            rows=[(trial.trial, phase.phase, phase.perturbation or "-",
                   phase.steps, phase.converged, phase.population_size)
                  for trial in result.trials for phase in trial.phases],
            title="per-phase breakdown",
        )
        return (f"{table}\n{phases}\n{summary}, "
                f"all converged = {result.all_converged}")
    return f"{table}\n{summary}, all converged = {result.all_converged}"


def _render_store_line(store) -> str:
    """One-line results-store summary appended to text reports."""
    mode = "" if store.write else ", read-only"
    return (f"store: {store.served} trial(s) served from cache, "
            f"{store.executed} executed ({store.root}{mode})")


def _render_analytic(title: str, payload: Dict[str, object]) -> str:
    lines = [title]
    for key, value in payload.items():
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> CommandOutput:
    try:
        spec = get_spec(args.protocol)
    except KeyError as error:
        raise CommandError(error.args[0]) from None
    config = _config_from_args(args)
    if not spec.is_simulated:
        for flag, value, default in (("--family", args.family, None),
                                     ("--scenario", args.scenario, None),
                                     ("--workers", args.workers, 1),
                                     ("--engine", args.engine, "auto"),
                                     ("--topology", args.topology, DEFAULT_TOPOLOGY),
                                     ("--store", args.store, None),
                                     ("--no-store-write", args.no_store_write, False)):
            if value != default:
                raise CommandError(
                    f"protocol {spec.name!r} is analytic; {flag} does not apply"
                )
    else:
        if args.family is not None:
            try:
                spec.require_family(args.family)
            except KeyError as error:
                raise CommandError(error.args[0]) from None
        try:
            spec.require_topology(config.topology)
        except ValueError as error:
            raise CommandError(str(error)) from None
        for n in config.sizes:
            try:
                spec.require_supported(n)
                # The registry's construction-free feasibility check (torus
                # factorization, regular-graph parity, ...): turns mid-sweep
                # construction failures into a pre-run usage error.
                validate_topology(config.topology, n, **config.topology_kwargs())
                if config.scenario:
                    # Same promise for scenarios: every phase's perturbation
                    # parameters and churn-resized population must be
                    # feasible at this size before any trial runs.
                    from repro.scenario.runtime import validate_scenario

                    validate_scenario(config.scenario, spec, n, config)
            except ValueError as error:
                raise CommandError(str(error)) from None
    store = _store_from_args(args) if spec.is_simulated else None
    sections: List[str] = []
    results: List[Dict[str, object]] = []
    for n in config.sizes:
        if not spec.is_simulated:
            model = evaluate_analytic(spec.name, n, config)
            model.update({"spec": spec.name, "population_size": n})
            results.append(model)
            sections.append(_render_analytic(f"{spec.name} @ n={n} (analytic model)", model))
            continue
        builder = (
            experiment(spec.name)
            .on_topology(config.topology, n, **config.topology_kwargs())
            .until_safe()
            .trials(config.trials)
            .seed(config.seed)
            .max_steps(config.max_steps)
            .check_interval(config.check_interval)
            .kappa_factor(config.kappa_factor)
            .engine(config.engine)
            .store(store)
        )
        if args.family:
            builder.from_family(args.family)
        if config.scenario:
            builder.scenario(config.scenario)
        if args.workers > 1:
            builder.parallel(args.workers)
        result = builder.run()
        results.append(result.to_dict())
        sections.append(_render_run_result(result))
    payload = {
        "command": "run",
        "protocol": spec.name,
        "kind": spec.kind,
        "seed": args.seed,
        "results": results,
        "store": store.stats() if store is not None else None,
    }
    if store is not None:
        sections.append(_render_store_line(store))
    return "\n\n".join(sections), payload


def _cmd_table1(args: argparse.Namespace) -> CommandOutput:
    from repro.experiments.table1 import build_table1, render_table1

    config = _config_from_args(args)
    store = _store_from_args(args)
    rows = build_table1(config, workers=args.workers, store=store)
    payload = {"command": "table1", "rows": [asdict(row) for row in rows],
               "store": store.stats() if store is not None else None}
    text = render_table1(rows)
    if store is not None:
        text = f"{text}\n{_render_store_line(store)}"
    return text, payload


def _cmd_scaling(args: argparse.Namespace) -> CommandOutput:
    from repro.experiments.scaling import render_series, scaling_series

    config = _config_from_args(args)
    store = _store_from_args(args)
    if len(config.sizes) < 2:
        raise CommandError("scaling needs at least two ring sizes to fit growth laws")
    # The sweep compares ring protocols (P_PL and the [28] baseline), so a
    # non-ring --topology — or bad topology parameters — must fail here,
    # before any trial runs.
    try:
        for spec_name in ["ppl"] + ([] if args.no_baseline else ["yokota2021"]):
            get_spec(spec_name).require_topology(config.topology)
        for n in config.sizes:
            validate_topology(config.topology, n, **config.topology_kwargs())
    except ValueError as error:
        raise CommandError(str(error)) from None
    on_point_done = None
    if args.progress:
        import itertools

        counter = itertools.count(1)
        total = len(config.sizes) * (1 if args.no_baseline else 2)

        def on_point_done(point, request, results):
            converged = sum(1 for outcome in results if outcome.converged)
            print(f"[scaling {next(counter)}/{total}] {request.spec_name} "
                  f"n={request.population_size}: {converged}/{len(results)} "
                  "trial(s) converged", file=sys.stderr, flush=True)

    series = scaling_series(config, include_baseline=not args.no_baseline,
                            from_leaderless=args.leaderless,
                            workers=args.workers, store=store,
                            on_point_done=on_point_done)

    sections: List[str] = []
    payload_series: List[Dict[str, object]] = []
    for entry in series:
        sections.extend(render_series(entry))
        best = entry.best_fit()
        payload_series.append({
            "protocol": entry.protocol,
            "sizes": entry.sizes,
            "mean_steps": entry.mean_steps,
            "failed_sizes": entry.failed_sizes,
            "best_fit": best.law if best is not None else None,
            "fits": [asdict(fit) for fit in entry.fits],
        })
    payload = {"command": "scaling", "leaderless": args.leaderless,
               "series": payload_series,
               "store": store.stats() if store is not None else None}
    if store is not None:
        sections.append(_render_store_line(store))
    return "\n\n".join(sections), payload


def _cmd_check(args: argparse.Namespace) -> CommandOutput:
    from repro.check.graph import DEFAULT_MAX_CONFIGS
    from repro.check.model import DEFAULT_MAX_N, summarize, verify_all, verify_spec

    max_configs = args.max_configs or DEFAULT_MAX_CONFIGS
    max_n = args.max_n or DEFAULT_MAX_N
    if args.protocol is not None:
        try:
            spec = get_spec(args.protocol)
        except KeyError as error:
            raise CommandError(error.args[0]) from None
        if not spec.is_simulated:
            raise CommandError(
                f"protocol {spec.name!r} is analytic; there is no "
                "transition relation to model-check")
        if args.topology is not None:
            try:
                spec.require_topology(args.topology)
            except (ValueError, KeyError) as error:
                raise CommandError(str(error)) from None
    elif args.n is not None:
        raise CommandError(
            "--n requires naming a protocol (feasible sizes differ "
            "per spec); omit it for largest-feasible selection")

    if args.quant:
        return _cmd_check_quant(args, max_n, max_configs)

    if args.protocol is not None:
        reports = [verify_spec(args.protocol, max_n=max_n,
                               topology=args.topology,
                               n=args.n, max_configs=max_configs,
                               symmetry=args.symmetry)]
    else:
        reports = verify_all(max_n=max_n, topology=args.topology,
                             max_configs=max_configs,
                             symmetry=args.symmetry)

    summary = summarize(reports)
    rows = []
    for report in reports:
        if not report.get("points"):
            rows.append((report["spec"], "-", "-", "-", "-", "-", "-",
                         f"skipped: {report.get('skip_reason', '')}"))
            continue
        for point in report["points"]:
            if point["status"] == "skipped":
                rows.append((report["spec"], point["topology"], "-", "-",
                             "-", "-", "-",
                             f"skipped: {point.get('skip_reason', '')}"))
                continue
            checks = point["checks"]
            rows.append((
                report["spec"], point["topology"], point["n"],
                point["num_configs"], checks["closure"]["status"],
                checks["stabilization_reachability"]["status"],
                checks["livelock_free"]["status"], point["status"],
            ))
    text = format_table(
        headers=["spec", "topology", "n", "configs", "closure",
                 "reach-legal", "livelock-free", "status"],
        rows=rows,
        title=f"model-check verdicts ({summary['specs']} spec(s))",
    )
    verdict = ("all claims hold" if summary["ok"]
               else f"{summary['violated']} spec(s) VIOLATED")
    text += (f"\n{verdict}: {summary['verified']} verified, "
             f"{summary['skipped']} skipped")
    payload: Dict[str, object] = {
        "command": "check",
        "reports": reports,
        "summary": summary,
        "_exit_code": 0 if summary["ok"] else 1,
    }
    return text, payload


def _quant_cell(entry: Dict[str, object]) -> str:
    """Render one expected-steps entry: the exact rational when the solve
    was rational, the certified float otherwise."""
    if entry.get("exact") is not None:
        return f"{entry['value']:.3f}*"
    value = entry["value"]
    return f"{value:.3f}" if value == value else "-"


def _cmd_check_quant(args: argparse.Namespace, max_n: int,
                     max_configs: int) -> CommandOutput:
    from repro.check.quant import quant_all, quant_spec, summarize_quant

    store = _store_from_args(args)
    config = ExperimentConfig(engine=args.engine)
    common = dict(max_n=max_n, topology=args.topology,
                  max_configs=max_configs, config=config,
                  symmetry=args.symmetry, simulate=not args.no_simulate,
                  trials=args.quant_trials, z_threshold=args.z,
                  store=store)
    if args.protocol is not None:
        reports = [quant_spec(args.protocol, n=args.n, **common)]
    else:
        reports = quant_all(**common)

    summary = summarize_quant(reports)
    rows = []
    for report in reports:
        if not report.get("points"):
            rows.append((report["spec"], "-", "-", "-", "-", "-", "-", "-",
                         "-", "-", f"skipped: {report.get('skip_reason', '')}"))
            continue
        for point in report["points"]:
            if point["status"] == "skipped" and "solver" not in point:
                rows.append((report["spec"], point["topology"],
                             point.get("n") or "-", "-", "-", "-", "-", "-",
                             "-", "-",
                             f"skipped: {point.get('skip_reason', '')}"))
                continue
            expected = point["expected_steps"]
            gate = point.get("cross_validation", {})
            z = gate.get("z")
            rows.append((
                report["spec"], point["topology"], point["n"],
                point["analyzed_nodes"], point["solver"]["method"],
                _quant_cell(expected["canonical"]),
                _quant_cell(expected["uniform"]),
                _quant_cell(expected["worst"]),
                ("-" if gate.get("simulated_mean") is None
                 else f"{gate['simulated_mean']:.3f}"),
                "-" if z is None else f"{z:.2f}",
                point["status"],
            ))
    text = format_table(
        headers=["spec", "topology", "n", "nodes", "solver", "E[canonical]",
                 "E[uniform]", "E[worst]", "sim-mean", "z", "status"],
        rows=rows,
        title=f"exact expected convergence times ({summary['specs']} "
              "spec(s); * = exact rational)",
    )
    verdict = ("all gates pass" if summary["ok"]
               else f"{summary['violated']} spec(s) VIOLATED")
    text += (f"\n{verdict}: {summary['verified']} verified, "
             f"{summary['skipped']} skipped")
    payload: Dict[str, object] = {
        "command": "check",
        "mode": "quant",
        "reports": reports,
        "summary": summary,
        "_exit_code": 0 if summary["ok"] else 1,
    }
    return text, payload


def _cmd_cache(args: argparse.Namespace) -> CommandOutput:
    store = _store_from_args(args)
    if store is None:
        raise CommandError(
            "cache commands need a store; pass --store PATH or set REPRO_STORE"
        )
    if args.older_than is not None and args.action != "clear":
        raise CommandError("--older-than only applies to `cache clear`")
    if args.max_bytes is not None and args.action != "clear":
        raise CommandError("--max-bytes only applies to `cache clear`")
    if args.action == "list":
        rows = store.records()
        text = format_table(
            headers=["digest", "spec", "n", "family", "trials", "converged",
                     "engines", "bytes", "age (d)"],
            rows=[
                (row["digest"], row.get("spec", "(corrupt)"),
                 row.get("population_size", "-"), row.get("family", "-"),
                 row.get("trials", "-"), row.get("converged", "-"),
                 ",".join(row.get("engines", [])) or "-", row["bytes"],
                 row.get("age_days", "-"))
                for row in rows
            ],
            title=f"results store {store.root} ({len(rows)} record(s))",
        )
        return text, {"command": "cache", "action": "list",
                      "root": str(store.root), "records": rows}
    if args.action == "info":
        if args.digest is None:
            summary = store.summary()
            rendered = dict(summary)
            ages = rendered.pop("age_days")
            if ages is not None:
                rendered["age"] = (f"newest {ages['newest']:.2f} d, "
                                   f"oldest {ages['oldest']:.2f} d")
            text = _render_analytic(f"results store {store.root}", rendered)
            return text, {"command": "cache", "action": "info", **summary}
        try:
            record = store.record_info(args.digest)
        except (KeyError, ValueError) as error:
            raise CommandError(str(error)) from None
        lines = [f"record {record.get('digest', args.digest)}"]
        for key in ("spec", "population_size", "family", "rng_label",
                    "config", "versions", "corrupt"):
            if key in record:
                lines.append(f"  {key}: {record[key]}")
        trials = record.get("trials") or []
        lines.append(f"  trials: {len(trials)}")
        return "\n".join(lines), {"command": "cache", "action": "info",
                                  "record": record}
    removed = store.clear(args.digest or "", older_than_days=args.older_than,
                          max_bytes=args.max_bytes)
    scope = (f" older than {args.older_than:g} day(s)"
             if args.older_than is not None else "")
    if args.max_bytes is not None:
        scope += f" over the {args.max_bytes} byte budget (oldest first)"
    text = f"removed {removed} record(s){scope} from {store.root}"
    return text, {"command": "cache", "action": "clear",
                  "root": str(store.root), "removed": removed,
                  "older_than_days": args.older_than,
                  "max_bytes": args.max_bytes}


def _cmd_serve(args: argparse.Namespace) -> CommandOutput:
    from repro.service.http import serve

    store = _store_from_args(args)
    try:
        serve(host=args.host, port=args.port, workers=args.workers,
              store=store, max_jobs=args.max_jobs, announce=_announce)
    except KeyboardInterrupt:
        pass  # ^C is the intended way to stop a foreground service
    return "experiment service stopped", {
        "command": "serve", "host": args.host, "port": args.port,
        "store": str(store.root) if store is not None else None,
    }


def _announce(line: str) -> None:
    """Daemon announce lines go to stderr so stdout stays machine-parseable."""
    print(line, file=sys.stderr, flush=True)


def _cmd_store_serve(args: argparse.Namespace) -> CommandOutput:
    from repro.fabric.httpd import JsonHttpServer
    from repro.fabric.store_server import StoreApp
    from repro.store.store import ResultsStore

    store = _store_from_args(args)
    if store is None:
        raise CommandError(
            "store-serve needs a store directory; pass --store PATH "
            "or set REPRO_STORE"
        )
    if not isinstance(store, ResultsStore):
        raise CommandError(
            "store-serve puts a local directory on the wire; --store must "
            "be a path here, not another server's URL"
        )
    server = JsonHttpServer(StoreApp(store), host=args.host, port=args.port)
    _announce(f"store server serving {store.root} on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # ^C is the intended way to stop a foreground daemon
    finally:
        server.close()
    return "store server stopped", {
        "command": "store-serve", "host": args.host, "port": server.port,
        "root": str(store.root),
    }


def _cmd_fabric_serve(args: argparse.Namespace) -> CommandOutput:
    from repro.fabric.coordinator import Coordinator
    from repro.fabric.coordinator_server import CoordinatorApp
    from repro.fabric.httpd import JsonHttpServer

    coordinator = Coordinator(lease_ttl=args.lease_ttl,
                              max_attempts=args.max_attempts)
    server = JsonHttpServer(CoordinatorApp(coordinator),
                            host=args.host, port=args.port)
    _announce(f"fabric coordinator serving on {server.url} "
              f"(lease_ttl={args.lease_ttl:g}s, "
              f"max_attempts={args.max_attempts})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # ^C is the intended way to stop a foreground daemon
    finally:
        server.close()
    return "fabric coordinator stopped", {
        "command": "fabric-serve", "host": args.host, "port": server.port,
        "lease_ttl": args.lease_ttl, "max_attempts": args.max_attempts,
    }


def _cmd_work(args: argparse.Namespace) -> CommandOutput:
    from repro.fabric.transport import TransportError
    from repro.fabric.worker import work_loop

    store = _store_from_args(args)
    if store is None:
        raise CommandError(
            "work needs a results store the fleet shares (its write-backs "
            "are how finished points survive this process); pass "
            "--store PATH|URL or set REPRO_STORE"
        )
    stats: Dict[str, object] = {}
    try:
        stats = work_loop(
            args.coordinator,
            store=store,
            workers=args.workers if args.workers > 1 else None,
            poll=args.poll,
            drain=args.drain,
            max_points=args.max_points,
            announce=_announce,
        )
    except TransportError as error:
        raise CommandError(
            f"coordinator unreachable at {args.coordinator}: {error}"
        ) from None
    except KeyboardInterrupt:
        pass  # ^C is the intended way to stop a foreground worker
    payload = {"command": "work", "coordinator": args.coordinator,
               "store": store.stats(), **stats}
    executed = stats.get("points", "?")
    return f"worker stopped after {executed} point(s)", payload


def _cmd_detection(args: argparse.Namespace) -> CommandOutput:
    _require_auto_engine(args)
    from repro.experiments.detection import measure_detection

    config = _config_from_args(args)
    rows = (measure_detection(config, hot_clocks=True)
            + measure_detection(config, hot_clocks=False))
    text = format_table(
        headers=["n", "start", "trials", "mean steps to first leader",
                 "max steps", "all trials converged"],
        rows=[(row.population_size, row.start, row.trials, row.mean_steps,
               row.max_steps, row.all_converged) for row in rows],
        title="E3 — leader-absence detection (Lemma 3.7 / Section 3.2)",
    )
    return text, {"command": "detection", "rows": [asdict(row) for row in rows]}


def _cmd_elimination(args: argparse.Namespace) -> CommandOutput:
    _require_auto_engine(args)
    from repro.experiments.elimination import measure_elimination

    config = _config_from_args(args)
    rows = measure_elimination(config, "all") + measure_elimination(config, "half")
    text = format_table(
        headers=["n", "initial leaders", "trials", "mean steps to one leader",
                 "max steps", "all trials converged"],
        rows=[(row.population_size, row.initial_leaders, row.trials, row.mean_steps,
               row.max_steps, row.all_converged) for row in rows],
        title="E4 — leader elimination (Lemma 4.11 / Section 3.4)",
    )
    return text, {"command": "elimination", "rows": [asdict(row) for row in rows]}


def _cmd_orientation(args: argparse.Namespace) -> CommandOutput:
    _require_auto_engine(args)
    from repro.experiments.orientation import (
        measure_coloring,
        measure_orientation,
        orientation_fits,
        orientation_report,
    )

    config = _config_from_args(args)
    if len(config.sizes) < 2:
        raise CommandError("orientation needs at least two ring sizes to fit growth laws")
    if args.format == "text":
        return orientation_report(config), {}
    orientation_rows = measure_orientation(config)
    coloring_rows = measure_coloring(config)
    fits = orientation_fits(orientation_rows)
    payload = {
        "command": "orientation",
        "orientation": [asdict(row) for row in orientation_rows],
        "coloring": [asdict(row) for row in coloring_rows],
        "fits": [asdict(fit) for fit in fits],
    }
    return "", payload


def _cmd_figure1(args: argparse.Namespace) -> CommandOutput:
    _require_auto_engine(args)
    from repro.experiments.figures import figure1_report, regenerate_figure1

    config = _config_from_args(args)
    if args.format == "text":
        return figure1_report(config), {}
    results = [
        regenerate_figure1(n, kappa_factor=config.kappa_factor,
                           max_steps=config.max_steps, seed=config.seed,
                           check_interval=config.check_interval)
        for n in config.sizes
    ]
    return "", {"command": "figure1", "results": [asdict(result) for result in results]}


def _cmd_figure2(args: argparse.Namespace) -> CommandOutput:
    from repro.experiments.figures import figure2_report, regenerate_figure2

    result = regenerate_figure2(psi=args.psi)
    payload = dict(asdict(result))
    payload["matches_definition"] = result.matches_definition
    payload["command"] = "figure2"
    return figure2_report(psi=args.psi, result=result), payload


def _cmd_demo(args: argparse.Namespace) -> CommandOutput:
    _require_auto_engine(args)
    from repro import BatchedSimulation, DirectedRing, PPLProtocol
    from repro.protocols.ppl import adversarial_configuration, summary

    config = _config_from_args(args)
    n = min(config.sizes)
    protocol = PPLProtocol.for_population(n, kappa_factor=config.kappa_factor)
    ring = DirectedRing(n)
    start = adversarial_configuration(n, protocol.params, rng=config.seed)
    simulation = BatchedSimulation(protocol, ring, start, rng=config.seed + 1)
    start_summary = summary(simulation.states(), protocol.params)
    result = simulation.run_until(
        protocol.is_stable,
        max_steps=config.max_steps,
        check_interval=config.check_interval,
    )
    end_summary = summary(simulation.states(), protocol.params)
    text = "\n".join([
        f"demo: {protocol.name} on {ring.name}",
        f"start: {start_summary}",
        f"converged: {result.satisfied} after {result.steps} steps",
        f"end: {end_summary}",
    ])
    payload = {
        "command": "demo",
        "protocol": protocol.name,
        "population_size": n,
        "converged": result.satisfied,
        "steps": result.steps,
        "start": start_summary,
        "end": end_summary,
    }
    return text, payload


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "table1": _cmd_table1,
    "scaling": _cmd_scaling,
    "detection": _cmd_detection,
    "elimination": _cmd_elimination,
    "orientation": _cmd_orientation,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "demo": _cmd_demo,
    "cache": _cmd_cache,
    "check": _cmd_check,
    "serve": _cmd_serve,
    "store-serve": _cmd_store_serve,
    "fabric-serve": _cmd_fabric_serve,
    "work": _cmd_work,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-ssle`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, payload = _HANDLERS[args.command](args)
    except CommandError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit
    except StateSpaceError as error:
        # Reachable when a protocol's states are neither hashable nor
        # dataclasses, so the lazy table cannot code them: a usage problem,
        # not a crash.
        parser.error(f"{error} (--engine step runs states the table cannot "
                     "code)")
        return 2  # pragma: no cover - parser.error raises SystemExit
    # Commands that gate CI (`check`) report their verdict as an exit code
    # alongside the payload; everything else exits 0 on success.
    exit_code = int(payload.pop("_exit_code", 0))
    try:
        if args.format == "json":
            print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The consumer (head, jq -e, ...) closed the pipe early; that is not
        # an error worth a traceback.  Hand the descriptor a devnull so the
        # interpreter's shutdown flush stays quiet too.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
