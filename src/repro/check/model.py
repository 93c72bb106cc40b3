"""Registry-aware protocol model checking: ``verify_spec`` and friends.

:mod:`repro.check.graph` answers the three self-stabilization questions
(closure, stabilization reachability, livelock freedom) for one explicit
configuration graph.  This module turns that into per-spec verdicts:

* pick, per supported topology, the **largest feasible population** —
  the biggest ``n`` at or under the requested bound whose ``|Q|^n``
  configuration count fits the budget and whose topology constraints
  admit ``n`` (a 3x3 torus needs nine agents; ``|Q|=96`` protocols top
  out at ``n=3`` under the ~1e6-config default budget);
* compile the spec's protocol through :class:`StateEncoder` (the same
  ``transition`` the engines execute, so the object being verified is
  the object being simulated), seeded by :func:`coverage_seeds` so
  adversarial starts are inside the checked space;
* run the full-graph analysis and fold the results into a JSON-ready
  report, plus **table hygiene**: reachable-state count vs the declared
  ``state_space_size`` bound and transient (never-produced) codes.

Specs opt out or scope claims through :class:`repro.api.registry.CheckPolicy`:
``ppl``'s polylog state space exceeds any enumeration cap (its
stabilization coverage stays dynamic), ``fischer-jiang`` converges by
oracle semantics outside the pairwise relation, and ``angluin-modk``
claims closure only on the directed ring (its off-ring predicate detects
an *event*, not an invariant).  Infeasible or unclaimed points are
reported as ``skipped``/``not_claimed`` — never silently dropped — and
only ``violated`` verdicts fail the CI gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.config import ExperimentConfig
from repro.api.registry import CheckPolicy, ProtocolSpec, get_spec, list_specs
from repro.check.graph import (
    DEFAULT_MAX_CONFIGS,
    ConfigurationGraph,
    analyze,
)
from repro.check.symmetry import QuotientGraph, symmetry_for
from repro.core.encoding import StateEncoder, coverage_seeds
from repro.core.errors import StateSpaceError
from repro.topology.registry import (
    build_topology,
    topology_names,
    validate_topology,
)

#: Default population bound: the ISSUE-level contract is "small n"; six is
#: the ceiling, the budget then picks the largest feasible n at or below it.
#: (Symmetry reduction raises the *feasible* ceiling — callers that want
#: rings beyond six pass a larger ``max_n`` and let the orbit budget decide.)
DEFAULT_MAX_N = 6

#: How :func:`select_point` spends the ``max_configs`` budget: ``"off"``
#: counts full configurations only; ``"auto"`` prefers the full graph but
#: falls back to the symmetry quotient when only the orbit count fits;
#: ``"force"`` requires the quotient (skipping topologies with no
#: implemented symmetry group) — the equivalence tests' lever.
SYMMETRY_MODES = ("auto", "off", "force")

VERIFIED = "verified"
VIOLATED = "violated"
SKIPPED = "skipped"
#: A check that was run for information but is not part of the spec's
#: claim on this topology (see ``CheckPolicy.closure_topologies``).
NOT_CLAIMED = "not_claimed"


def _declared_bound(protocol) -> Optional[int]:
    try:
        return protocol.state_space_size()
    except NotImplementedError:
        return None


def _build_encoder(spec: ProtocolSpec, n: int, config: ExperimentConfig,
                   max_states: int) -> Tuple[object, StateEncoder]:
    """Protocol + coverage-seeded encoder for one population size."""
    protocol = spec.build_protocol(n, config)
    encoder = StateEncoder.build(
        protocol, coverage_seeds(protocol, max_states=max_states),
        max_states=max_states)
    return protocol, encoder


def _hygiene(protocol, encoder: StateEncoder,
             max_states: int) -> Dict[str, object]:
    """Table hygiene: state accounting for one compiled encoder.

    ``exceeds_declared_bound`` is the one *violation* here: more reachable
    states than ``state_space_size()`` declares means transitions escape
    the declared bound.
    ``transient_codes`` — states no transition ever produces, reachable
    only as initial conditions — and the canonical closure size are
    informational.
    """
    initiator_out, responder_out, _ = encoder.tables()
    produced = set(initiator_out) | set(responder_out)
    transient = [code for code in range(encoder.num_states)
                 if code not in produced]
    canonical = StateEncoder.build(protocol, max_states=max_states)
    declared = _declared_bound(protocol)
    return {
        "num_states": encoder.num_states,
        "declared_bound": declared,
        "exceeds_declared_bound": (declared is not None
                                   and encoder.num_states > declared),
        "transient_codes": len(transient),
        "canonical_closure": canonical.num_states,
    }


def _feasible_reduction(topology: str, n: int, num_states: int,
                        max_configs: int) -> Tuple[Optional[object], str]:
    """The topology's symmetry group if its quotient fits the budget.

    Both the orbit count (what the analyses traverse) and the enumeration
    cost (what representative discovery touches — ``|Q|^{wh}`` for tori,
    output-sensitive for rings) must stay within reach of the budget.
    """
    population = build_topology(topology, n)
    reduction = symmetry_for(population)
    if reduction is None:
        return None, f"no symmetry group implemented for {topology!r}"
    orbits = reduction.orbit_count(num_states)
    if orbits > max_configs:
        return None, (f"{orbits} orbits under {reduction.name} exceed "
                      f"the budget of {max_configs}")
    if reduction.enumeration_cost(num_states) > max_configs * reduction.group_size:
        return None, (f"representative enumeration would touch "
                      f"{reduction.enumeration_cost(num_states)} "
                      f"configurations, beyond the budget")
    return reduction, ""


def select_point(spec: ProtocolSpec, topology: str, max_n: int,
                 max_configs: int, config: ExperimentConfig,
                 max_states: int,
                 cache: Dict[int, Tuple[object, StateEncoder]],
                 forced_n: Optional[int] = None,
                 symmetry: str = "auto",
                 ) -> Tuple[Optional[int], Optional[object], str]:
    """Largest feasible ``n`` for one topology: ``(n, reduction, reason)``.

    ``reduction`` is ``None`` for a full-graph point or the symmetry group
    whose quotient made the point feasible (see :data:`SYMMETRY_MODES`).
    Encoders are cached per ``n`` across topologies: the protocol depends
    only on ``(n, config)``, never on the graph.
    """
    if symmetry not in SYMMETRY_MODES:
        raise ValueError(f"symmetry must be one of {SYMMETRY_MODES}, "
                         f"got {symmetry!r}")
    candidates = ([forced_n] if forced_n is not None
                  else list(range(max_n, 1, -1)))
    reasons: List[str] = []
    for n in candidates:
        if not spec.supports(n):
            reasons.append(f"n={n}: unsupported ({spec.supported_note})")
            continue
        try:
            validate_topology(topology, n)
        except ValueError as error:
            reasons.append(f"n={n}: {error}")
            continue
        if n not in cache:
            cache[n] = _build_encoder(spec, n, config, max_states)
        num_states = cache[n][1].num_states
        full_feasible = num_states ** n <= max_configs
        if symmetry != "force" and full_feasible:
            return n, None, ""
        if symmetry == "off":
            reasons.append(
                f"n={n}: {num_states}^{n} configurations exceed the "
                f"budget of {max_configs}")
            continue
        reduction, why = _feasible_reduction(topology, n, num_states,
                                             max_configs)
        if reduction is not None:
            return n, reduction, ""
        reasons.append(
            f"n={n}: {num_states}^{n} configurations exceed the budget "
            f"of {max_configs} and {why}"
            if not full_feasible else f"n={n}: {why}")
    detail = reasons[-1] if reasons else f"no candidate n <= {max_n}"
    return None, None, (f"no feasible population size on {topology!r} "
                        f"(last: {detail})")


def _check_point(spec: ProtocolSpec, policy: CheckPolicy, topology: str,
                 n: int, protocol, encoder: StateEncoder,
                 reduction=None) -> Dict[str, object]:
    """Run the full-graph battery for one ``(topology, n)`` point.

    With ``reduction`` set, the battery runs on the symmetry quotient
    instead: verdicts transfer exactly (orbit members have identical
    futures), only the example configurations are reported as orbit
    representatives rather than arbitrary members.
    """
    population = build_topology(topology, n)
    predicate = spec.build_stop_predicate(protocol, population)
    initiator_out, responder_out, changed = encoder.tables()
    full = ConfigurationGraph(encoder.num_states, n, list(population.arcs),
                              initiator_out, responder_out, changed)
    graph = QuotientGraph(full, reduction) if reduction is not None else full
    states = encoder.decode_view(range(encoder.num_states))
    legal = graph.legal_mask(predicate, states)
    analysis = analyze(graph, legal)

    closure_claimed = (policy.closure_topologies is None
                       or topology in policy.closure_topologies)
    closure: Dict[str, object] = {
        "status": ((VERIFIED if analysis.closed else VIOLATED)
                   if closure_claimed else NOT_CLAIMED),
        "violations": len(analysis.closure_violations),
    }
    if analysis.closure_violations:
        source, target = analysis.closure_violations[0]
        closure["example"] = {"from": graph.digits(source),
                              "to": graph.digits(target)}
    if not closure_claimed:
        closure["note"] = (f"closure is claimed only on "
                           f"{', '.join(policy.closure_topologies)} "
                           "(event-style predicate elsewhere)")

    reachability: Dict[str, object] = {
        "status": (VERIFIED if analysis.num_legal and analysis.stabilizing
                   else VIOLATED),
        "unreachable_components": analysis.unreachable_components,
    }
    if not analysis.num_legal:
        reachability["note"] = "no legal configuration exists at this n"
    elif analysis.unreachable_example is not None:
        reachability["example"] = graph.digits(analysis.unreachable_example)

    livelock: Dict[str, object] = {
        "status": VERIFIED if analysis.livelock_free else VIOLATED,
        "bottom_components": analysis.bottom_components,
        "livelock_components": analysis.livelock_components,
    }
    if analysis.livelock_example is not None:
        livelock["example"] = graph.digits(analysis.livelock_example)

    checks = {
        "closure": closure,
        "stabilization_reachability": reachability,
        "livelock_free": livelock,
    }
    status = (VIOLATED
              if any(check["status"] == VIOLATED for check in checks.values())
              else VERIFIED)
    point: Dict[str, object] = {
        "topology": topology,
        "n": n,
        "num_states": encoder.num_states,
        # The size of the configuration *space* (full |Q|^n), independent
        # of whether the analysis traversed it or its quotient.
        "num_configs": full.num_configs,
        "analyzed_nodes": analysis.num_configs,
        "num_legal": analysis.num_legal,
        "scc_count": analysis.scc_count,
        "status": status,
        "checks": checks,
    }
    if reduction is not None:
        point["reduction"] = {
            "group": reduction.name,
            "group_size": reduction.group_size,
            "orbits": analysis.num_configs,
        }
    return point


def verify_spec(name: str,
                max_n: int = DEFAULT_MAX_N,
                topology: Optional[str] = None,
                n: Optional[int] = None,
                max_configs: int = DEFAULT_MAX_CONFIGS,
                config: Optional[ExperimentConfig] = None,
                symmetry: str = "auto",
                ) -> Dict[str, object]:
    """Model-check one registered simulated spec; returns the JSON report.

    ``topology`` restricts the check to one topology (default: every
    topology the spec supports); ``n`` forces an exact population size
    instead of the largest-feasible selection; ``symmetry`` governs
    whether the ``max_configs`` budget may be spent on rotation/translation
    orbits instead of raw configurations (see :data:`SYMMETRY_MODES`).
    The report's ``status`` is ``verified`` (every claimed property proved
    on at least one point and no violation anywhere), ``violated``, or
    ``skipped`` (policy opt-out, un-enumerable state space, or no feasible
    point — with the reason).
    """
    spec = get_spec(name)
    if not spec.is_simulated:
        raise ValueError(
            f"protocol {name!r} is analytic; there is no transition "
            "relation to model-check")
    policy = spec.check or CheckPolicy()
    report: Dict[str, object] = {"spec": name, "points": []}
    if policy.skip_reason is not None:
        report["status"] = SKIPPED
        report["skip_reason"] = policy.skip_reason
        return report

    config = config or ExperimentConfig()
    max_states = policy.max_states
    topologies = ([topology] if topology is not None
                  else list(spec.supported_topologies
                            if spec.supported_topologies is not None
                            else topology_names()))
    if topology is not None:
        try:
            spec.require_topology(topology)
        except ValueError as error:
            # A whole-registry sweep restricted to one topology must not
            # abort on the specs that are not defined there.
            report["status"] = SKIPPED
            report["skip_reason"] = str(error)
            return report

    cache: Dict[int, Tuple[object, StateEncoder]] = {}
    points: List[Dict[str, object]] = []
    try:
        for entry in topologies:
            chosen, reduction, reason = select_point(
                spec, entry, max_n, max_configs, config, max_states,
                cache, forced_n=n, symmetry=symmetry)
            if chosen is None:
                points.append({"topology": entry, "n": None,
                               "status": SKIPPED, "skip_reason": reason})
                continue
            protocol, encoder = cache[chosen]
            points.append(_check_point(spec, policy, entry, chosen,
                                       protocol, encoder,
                                       reduction=reduction))
    except StateSpaceError as error:
        report["status"] = SKIPPED
        report["skip_reason"] = f"state space not enumerable: {error}"
        return report

    report["points"] = points
    if cache:
        largest = max(cache)
        report["hygiene"] = _hygiene(*cache[largest], max_states)
    hygiene_violated = bool(report.get("hygiene", {}).get(
        "exceeds_declared_bound"))
    if hygiene_violated or any(point["status"] == VIOLATED
                               for point in points):
        report["status"] = VIOLATED
    elif any(point["status"] == VERIFIED for point in points):
        report["status"] = VERIFIED
    else:
        report["status"] = SKIPPED
        report["skip_reason"] = (
            f"no feasible verification point at n <= {max_n} under "
            f"{max_configs} configurations")
    return report


def verify_all(max_n: int = DEFAULT_MAX_N,
               topology: Optional[str] = None,
               max_configs: int = DEFAULT_MAX_CONFIGS,
               config: Optional[ExperimentConfig] = None,
               symmetry: str = "auto",
               ) -> List[Dict[str, object]]:
    """Model-check every registered simulated spec (the CI smoke's API)."""
    return [
        verify_spec(spec.name, max_n=max_n, topology=topology,
                    max_configs=max_configs, config=config,
                    symmetry=symmetry)
        for spec in list_specs() if spec.is_simulated
    ]


def summarize(reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-spec reports into the gate verdict: ``ok`` iff nothing
    is violated (skips are reported, not failures)."""
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
