"""Quantitative model checking: exact expected convergence times, and the
engine cross-validation gate.

The qualitative checker (:mod:`repro.check.model`) proves *whether* every
configuration converges; this module computes *how long*, exactly.  Per
``(spec, topology)`` point it annotates the configuration graph with the
uniform scheduler's transition probabilities (:mod:`repro.check.probability`),
optionally quotients it by the topology's symmetry group
(:mod:`repro.check.symmetry`), and reports three expected hitting times to
the legal set:

* **canonical** — the spec's default start family at the trial-0 seed (the
  exact configuration the executor's first trial runs from);
* **uniform** — the mean over *all* ``|Q|^n`` configurations (orbit-size
  weighted under symmetry reduction, so the quotient answer is identical
  to the full-space answer);
* **worst** — the exact worst-case start configuration, identified by the
  solver rather than guessed by an adversarial family.

The **cross-validation gate** then runs the normal executor — any engine,
store-warm — at ``check_interval=1`` (so reported steps are true hitting
times, not overshoot) and asserts the simulated mean lies within a
configurable z-score of the exact value.  Bit-identity between engines can
never catch a bug shared by all three tiers; agreement with an
independently-computed closed-form expectation can.  The per-trial start
configurations are reconstructed from the same seeds the executor derives,
so the only randomness the z-score sees is the scheduler stream itself.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import ExperimentConfig
from repro.api.registry import CheckPolicy, ProtocolSpec, get_spec, list_specs
from repro.check.graph import DEFAULT_MAX_CONFIGS, ConfigurationGraph
from repro.check.model import (
    DEFAULT_MAX_N,
    SKIPPED,
    VERIFIED,
    VIOLATED,
    select_point,
)
from repro.check.probability import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_TOL,
    HittingTimes,
    hitting_times,
    mean_hitting_time,
    worst_start,
)
from repro.check.symmetry import QuotientGraph
from repro.core.encoding import StateEncoder, coverage_seeds
from repro.core.errors import StateSpaceError
from repro.core.rng import RandomSource
from repro.topology.registry import topology_names


def _as_float(value: object) -> float:
    return float(value) if value is not None else math.nan


def _exact_repr(value: object) -> Optional[str]:
    """Lossless rendering of an exact value (``None`` for floats/inf)."""
    if isinstance(value, Fraction):
        return str(value)  # "7/2", or "4" when the denominator is 1
    if isinstance(value, int):
        return str(value)
    return None


def z_score(steps: Sequence[int], exact_mean: float) -> Dict[str, float]:
    """The gate statistic: how many standard errors the simulated mean
    sits from the exact expectation.

    Returns ``simulated_mean``, ``stderr`` (sample standard deviation over
    ``sqrt(trials)``), and ``z``.  A zero standard error (every trial took
    the same number of steps) degenerates to ``z = 0`` on exact agreement
    and ``z = inf`` otherwise — a deterministic chain must match exactly.
    """
    count = len(steps)
    if count < 1:
        raise ValueError("z_score needs at least one trial")
    simulated = sum(steps) / count
    if count > 1:
        variance = sum((value - simulated) ** 2 for value in steps) / (count - 1)
    else:
        variance = 0.0
    stderr = math.sqrt(variance / count)
    difference = abs(simulated - exact_mean)
    if stderr == 0.0:
        z = 0.0 if difference <= 1e-9 else math.inf
    else:
        z = difference / stderr
    return {"simulated_mean": simulated, "stderr": stderr, "z": z}


def _trial_starts(spec: ProtocolSpec, protocol, population, n: int,
                  tasks) -> List[List[object]]:
    """Each gate trial's initial configuration, replayed from its seed —
    the exact code path :func:`repro.api.executor.execute_trial` runs."""
    starts = []
    for task in tasks:
        initial = spec.build_configuration(
            task.family, protocol, n,
            RandomSource(task.configuration_seed), population=population)
        starts.append(initial.states())
    return starts


def _node_of(graph, codes: Sequence[int]) -> int:
    """Graph node (full cid or orbit index) of encoded agent codes."""
    if isinstance(graph, QuotientGraph):
        return graph.orbit_of(codes)
    return graph.encode(codes)


def _cross_validate(spec: ProtocolSpec, graph, encoder: StateEncoder,
                    times: HittingTimes, gate_config: ExperimentConfig,
                    tasks, starts: List[List[object]], threshold: float,
                    store=None) -> Dict[str, object]:
    """Run the executor and compare its mean steps against the exact value."""
    from repro.api.executor import run_trials

    family = spec.default_family
    trials = len(tasks)
    exact_values: List[object] = []
    for states in starts:
        node = _node_of(graph, encoder.encode_all(states))
        exact_values.append(times.values[node])
    if any(isinstance(value, float) and math.isinf(value)
           for value in exact_values):
        return {
            "family": family, "trials": trials, "status": VIOLATED,
            "note": ("a sampled start configuration cannot reach the "
                     "legal set; the simulation would never converge"),
        }
    exact_mean = sum(float(value) for value in exact_values) / len(exact_values)

    results = run_trials(tasks, store=store)
    steps = [result.steps for result in results]
    failures = sum(1 for result in results if not result.converged)
    statistic = z_score(steps, exact_mean)
    verdict: Dict[str, object] = {
        "family": family,
        "trials": trials,
        "engine": results[0].engine if results else gate_config.engine,
        "exact_mean": exact_mean,
        "threshold": threshold,
        **statistic,
    }
    if failures:
        verdict["status"] = VIOLATED
        verdict["note"] = (f"{failures} trial(s) missed the "
                           f"{gate_config.max_steps}-step budget despite a "
                           "finite exact expectation")
    elif statistic["z"] > threshold:
        verdict["status"] = VIOLATED
        verdict["note"] = (f"simulated mean {statistic['simulated_mean']:.3f} "
                           f"is {statistic['z']:.2f} standard errors from "
                           f"the exact {exact_mean:.3f} (threshold "
                           f"{threshold})")
    else:
        verdict["status"] = VERIFIED
    return verdict


def _quant_point(spec: ProtocolSpec, policy: CheckPolicy, topology: str,
                 n: int, reduction, protocol, encoder: StateEncoder,
                 config: ExperimentConfig, simulate: bool, trials: int,
                 threshold: float, exact_limit: int, tol: float,
                 max_configs: int = DEFAULT_MAX_CONFIGS,
                 store=None) -> Dict[str, object]:
    """Exact expected convergence times for one ``(topology, n)`` point."""
    from repro.api.executor import trial_tasks
    from repro.topology.registry import build_topology

    population = build_topology(topology, n)
    predicate = spec.build_stop_predicate(protocol, population)

    # Reconstruct the gate's start configurations *before* building the
    # graph: a random family can draw a state the coverage probe missed,
    # and every sampled start must be a node of the chain being solved.
    gate_config = replace(config, sizes=(n,), topology=topology,
                          topology_params=(), check_interval=1, scenario=(),
                          trials=max(trials, 1))
    tasks = trial_tasks(spec.name, n, gate_config, spec.default_family,
                        trials=trials if simulate else 1,
                        rng_label=spec.rng_label)
    starts = _trial_starts(spec, protocol, population, n, tasks)
    start_states = [state for states in starts for state in states]
    if not encoder.covers(start_states):
        seeds = list(coverage_seeds(protocol,
                                    max_states=policy.max_states))
        encoder = StateEncoder.build(
            protocol, seeds + start_states, max_states=policy.max_states)
        budget_nodes = (reduction.orbit_count(encoder.num_states)
                        if reduction is not None
                        else encoder.num_states ** n)
        if budget_nodes > max_configs:
            return {
                "topology": topology, "n": n, "status": SKIPPED,
                "skip_reason": (
                    f"covering the gate's sampled starts grows the state "
                    f"space to {encoder.num_states} states "
                    f"({budget_nodes} nodes), over the {max_configs} budget"),
            }
    initiator_out, responder_out, changed = encoder.tables()
    full = ConfigurationGraph(encoder.num_states, n, list(population.arcs),
                              initiator_out, responder_out, changed)
    graph = QuotientGraph(full, reduction) if reduction is not None else full
    states = encoder.decode_view(range(encoder.num_states))
    legal = graph.legal_mask(predicate, states)
    times = hitting_times(graph, legal, exact_limit=exact_limit, tol=tol)

    weights = (graph.orbit_sizes if isinstance(graph, QuotientGraph)
               else None)
    uniform = mean_hitting_time(times, weights)
    worst_node, worst_value = worst_start(times)

    point: Dict[str, object] = {
        "topology": topology,
        "n": n,
        "num_states": encoder.num_states,
        "num_configs": full.num_configs,
        "analyzed_nodes": graph.num_configs,
        "num_legal": sum(legal),
        "solver": {
            "method": times.method,
            "residual": times.residual,
            "transient": times.transient,
            "sweeps": times.sweeps,
            "certified": times.certified,
        },
        "unreachable": times.unreachable,
    }
    if reduction is not None:
        point["reduction"] = {
            "group": reduction.name,
            "group_size": reduction.group_size,
            "orbits": graph.num_configs,
        }

    # Canonical start: the default family at the executor's trial-0 seed
    # (the exact configuration the gate's first trial runs from).
    canonical_codes = encoder.encode_all(starts[0])
    canonical_value = times.values[_node_of(graph, canonical_codes)]

    point["expected_steps"] = {
        "canonical": {
            "family": spec.default_family,
            "value": _as_float(canonical_value),
            "exact": _exact_repr(canonical_value),
            "configuration": canonical_codes,
        },
        "uniform": {
            "value": _as_float(uniform),
            "exact": _exact_repr(uniform),
        },
        "worst": {
            "value": _as_float(worst_value),
            "exact": _exact_repr(worst_value),
            "configuration": (graph.digits(worst_node)
                              if worst_node is not None else None),
        },
    }

    status = VERIFIED if times.certified else SKIPPED
    if not times.certified:
        point["skip_reason"] = (
            f"iterative solver residual {times.residual:.3e} missed the "
            f"{tol:.1e} certificate after {times.sweeps} sweeps")
    if simulate and status == VERIFIED:
        verdict = _cross_validate(spec, graph, encoder, times, gate_config,
                                  tasks, starts, threshold, store=store)
        point["cross_validation"] = verdict
        if verdict["status"] == VIOLATED:
            status = VIOLATED
    point["status"] = status
    return point


def quant_spec(name: str,
               max_n: int = DEFAULT_MAX_N,
               topology: Optional[str] = None,
               n: Optional[int] = None,
               max_configs: int = DEFAULT_MAX_CONFIGS,
               config: Optional[ExperimentConfig] = None,
               symmetry: str = "auto",
               simulate: bool = True,
               trials: Optional[int] = None,
               z_threshold: Optional[float] = None,
               exact_limit: int = DEFAULT_EXACT_LIMIT,
               tol: float = DEFAULT_TOL,
               store=None) -> Dict[str, object]:
    """Quantitative verification of one spec; returns the JSON report.

    Selection mirrors :func:`repro.check.model.verify_spec` — largest
    feasible ``n`` per topology under ``max_configs``, with ``symmetry``
    (``auto``/``off``/``force``) deciding whether the budget is measured
    in configurations or in orbits.  ``simulate=False`` skips the
    executor cross-validation and reports exact values only; ``trials``
    and ``z_threshold`` default to the spec's
    :class:`~repro.api.registry.CheckPolicy`.
    """
    spec = get_spec(name)
    if not spec.is_simulated:
        raise ValueError(
            f"protocol {name!r} is analytic; there is no transition "
            "relation to quantify")
    policy = spec.check or CheckPolicy()
    report: Dict[str, object] = {"spec": name, "mode": "quant", "points": []}
    if policy.skip_reason is not None:
        report["status"] = SKIPPED
        report["skip_reason"] = policy.skip_reason
        return report

    config = config or ExperimentConfig()
    gate_trials = policy.quant_trials if trials is None else trials
    gate_z = policy.quant_z if z_threshold is None else z_threshold
    topologies = ([topology] if topology is not None
                  else list(spec.supported_topologies
                            if spec.supported_topologies is not None
                            else topology_names()))
    if topology is not None:
        try:
            spec.require_topology(topology)
        except ValueError as error:
            report["status"] = SKIPPED
            report["skip_reason"] = str(error)
            return report

    cache: Dict[int, Tuple[object, StateEncoder]] = {}
    points: List[Dict[str, object]] = []
    try:
        for entry in topologies:
            chosen, reduction, reason = select_point(
                spec, entry, max_n, max_configs, config, policy.max_states,
                cache, forced_n=n, symmetry=symmetry)
            if chosen is None:
                points.append({"topology": entry, "n": None,
                               "status": SKIPPED, "skip_reason": reason})
                continue
            protocol, encoder = cache[chosen]
            points.append(_quant_point(
                spec, policy, entry, chosen, reduction, protocol, encoder,
                config, simulate, gate_trials, gate_z, exact_limit, tol,
                max_configs=max_configs, store=store))
    except StateSpaceError as error:
        report["status"] = SKIPPED
        report["skip_reason"] = f"state space not enumerable: {error}"
        return report

    report["points"] = points
    if any(point["status"] == VIOLATED for point in points):
        report["status"] = VIOLATED
    elif any(point["status"] == VERIFIED for point in points):
        report["status"] = VERIFIED
    else:
        report["status"] = SKIPPED
        report["skip_reason"] = (
            f"no feasible quantitative point at n <= {max_n} under "
            f"{max_configs} nodes")
    return report


def quant_all(max_n: int = DEFAULT_MAX_N,
              topology: Optional[str] = None,
              max_configs: int = DEFAULT_MAX_CONFIGS,
              config: Optional[ExperimentConfig] = None,
              symmetry: str = "auto",
              simulate: bool = True,
              trials: Optional[int] = None,
              z_threshold: Optional[float] = None,
              store=None) -> List[Dict[str, object]]:
    """Quantitatively verify every registered simulated spec."""
    return [
        quant_spec(spec.name, max_n=max_n, topology=topology,
                   max_configs=max_configs, config=config, symmetry=symmetry,
                   simulate=simulate, trials=trials, z_threshold=z_threshold,
                   store=store)
        for spec in list_specs() if spec.is_simulated
    ]


def summarize_quant(reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold quant reports into the gate verdict (mirrors ``summarize``)."""
    counts = {VERIFIED: 0, VIOLATED: 0, SKIPPED: 0}
    for report in reports:
        counts[report["status"]] = counts.get(report["status"], 0) + 1
    return {
        "specs": len(reports),
        "verified": counts[VERIFIED],
        "violated": counts[VIOLATED],
        "skipped": counts[SKIPPED],
        "ok": counts[VIOLATED] == 0,
    }
