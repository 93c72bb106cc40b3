"""verify_spec / verify_all verdicts: toy specs for every status path,
plus the real registered specs (the acceptance contract: closure,
stabilization reachability, and livelock freedom proved for every
simulated spec at small n, or an explicit policy skip)."""

from typing import Tuple

import pytest

from repro.api.config import ExperimentConfig
from repro.api.registry import (
    CheckPolicy,
    ProtocolSpec,
    register,
    unregister,
)
from repro.check.model import (
    NOT_CLAIMED,
    SKIPPED,
    VERIFIED,
    VIOLATED,
    summarize,
    verify_all,
    verify_spec,
)
from repro.core.configuration import Configuration
from repro.core.protocol import Protocol


class _ToyProtocol(Protocol):
    """Two-state protocol with a pluggable transition rule."""

    def __init__(self, name: str, rule, declared: int = 2) -> None:
        self.name = name
        self._rule = rule
        self._declared = declared

    def transition(self, initiator, responder) -> Tuple[int, int]:
        return self._rule(initiator, responder)

    def output(self, state) -> str:
        return "L" if state == 1 else "F"

    def random_state(self, rng) -> int:
        return rng.randint(0, 1)

    def state_space_size(self) -> int:
        return self._declared

    def canonical_states(self):
        return (0, 1)


def _random_family(protocol, n, rng):
    return Configuration([protocol.random_state(rng) for _ in range(n)])


def _toy_spec(name: str, rule, predicate, declared: int = 2,
              check: CheckPolicy = None) -> ProtocolSpec:
    return ProtocolSpec(
        name=name,
        summary=f"toy spec {name} (model-checker tests)",
        factory=lambda n, config: _ToyProtocol(name, rule, declared),
        families={"adversarial": _random_family},
        stop_predicate=lambda protocol: predicate,
        check=check,
    )


@pytest.fixture
def toy_spec():
    registered = []

    def make(name, rule, predicate, **kwargs):
        register(_toy_spec(name, rule, predicate, **kwargs))
        registered.append(name)
        return name

    yield make
    for name in registered:
        unregister(name)


def _all_ones(states) -> bool:
    return all(state == 1 for state in states)


def test_flood_spec_verifies_on_every_feasible_topology(toy_spec):
    # The responder unconditionally becomes 1: all-ones is absorbing and
    # reachable from everywhere on any (strongly enough connected) graph.
    name = toy_spec("flood-test", lambda i, r: (i, 1), _all_ones)
    report = verify_spec(name)
    assert report["status"] == VERIFIED
    by_topology = {point["topology"]: point for point in report["points"]}
    for topology in ("directed-ring", "undirected-ring", "complete",
                     "random-regular"):
        point = by_topology[topology]
        assert point["status"] == VERIFIED, point
        assert point["n"] == 6  # the largest feasible n under the default cap
        assert all(check["status"] == VERIFIED
                   for check in point["checks"].values())
    # A 3x3 torus needs nine agents, over the n <= 6 ceiling: explicit skip.
    torus = by_topology["torus"]
    assert torus["status"] == SKIPPED
    assert "torus" in torus["skip_reason"]
    hygiene = report["hygiene"]
    assert hygiene["num_states"] == 2
    assert not hygiene["exceeds_declared_bound"]


def test_trap_spec_is_violated_with_a_certificate(toy_spec):
    # (1, 0) -> (1, 1) spreads ones but cannot create them: the all-zero
    # configuration is an illegal fixed point, so stabilization
    # reachability and livelock freedom both fail (closure still holds).
    name = toy_spec(
        "trap-test",
        lambda i, r: (i, 1) if (i, r) == (1, 0) else (i, r),
        _all_ones,
    )
    report = verify_spec(name, topology="directed-ring")
    assert report["status"] == VIOLATED
    point = report["points"][0]
    checks = point["checks"]
    assert checks["closure"]["status"] == VERIFIED
    assert checks["stabilization_reachability"]["status"] == VIOLATED
    assert checks["stabilization_reachability"]["example"] == [0] * point["n"]
    assert checks["livelock_free"]["status"] == VIOLATED
    assert checks["livelock_free"]["livelock_components"] == 1


def test_closure_policy_scopes_the_claim(toy_spec):
    # The responder always flips: legal configurations are left
    # immediately, but the policy claims closure only on 'complete', so
    # a directed-ring check reports not_claimed instead of violated.
    def one_leader(states):
        return sum(1 for state in states if state == 1) == 1

    name = toy_spec("flip-test", lambda i, r: (i, 1 - r), one_leader,
                    check=CheckPolicy(closure_topologies=("complete",)))
    report = verify_spec(name, topology="directed-ring", n=2)
    point = report["points"][0]
    assert point["checks"]["closure"]["status"] == NOT_CLAIMED
    assert point["checks"]["closure"]["violations"] > 0
    assert "claimed only on complete" in point["checks"]["closure"]["note"]
    assert point["status"] == VERIFIED
    assert report["status"] == VERIFIED
    # The same dynamics with the claim in force is a violation.
    bare = toy_spec("flip-bare-test", lambda i, r: (i, 1 - r), one_leader)
    violated = verify_spec(bare, topology="directed-ring", n=2)
    assert violated["status"] == VIOLATED
    assert (violated["points"][0]["checks"]["closure"]["status"]
            == VIOLATED)


def test_underdeclared_state_bound_is_a_hygiene_violation(toy_spec):
    # The protocol reaches two states but declares one: the
    # engine-selection precheck would lie, so hygiene flags it even
    # though every graph property holds.
    name = toy_spec("narrow-test", lambda i, r: (i, 1), _all_ones,
                    declared=1)
    report = verify_spec(name, topology="directed-ring")
    assert report["hygiene"]["exceeds_declared_bound"] is True
    assert report["status"] == VIOLATED


def test_budget_and_forced_n_produce_explicit_skips():
    # 96^4 configurations blow the default budget: a forced n=4 must be
    # reported as an explicit skip, never silently shrunk.
    report = verify_spec("yokota2021", n=4)
    assert report["status"] == SKIPPED
    point = report["points"][0]
    assert point["status"] == SKIPPED
    assert "exceed" in point["skip_reason"]
    assert "no feasible verification point" in report["skip_reason"]


def test_analytic_specs_are_rejected():
    with pytest.raises(ValueError, match="analytic"):
        verify_spec("chen-chen")


def test_unsupported_topology_restriction_degrades_to_skip():
    report = verify_spec("yokota2021", topology="complete")
    assert report["status"] == SKIPPED
    assert "does not support topology" in report["skip_reason"]


# ---------------------------------------------------------------------- #
# The real specs: the acceptance contract
# ---------------------------------------------------------------------- #
def test_ppl_and_fischer_jiang_skip_by_policy():
    ppl = verify_spec("ppl")
    assert ppl["status"] == SKIPPED
    assert "enumeration cap" in ppl["skip_reason"]
    fischer = verify_spec("fischer-jiang")
    assert fischer["status"] == SKIPPED
    assert "oracle" in fischer["skip_reason"]


def test_yokota_all_claims_hold_at_n2():
    report = verify_spec("yokota2021", n=2)
    assert report["status"] == VERIFIED
    point = report["points"][0]
    assert (point["topology"], point["n"]) == ("directed-ring", 2)
    assert point["num_states"] == 96
    assert point["num_configs"] == 96 * 96
    assert all(check["status"] == VERIFIED
               for check in point["checks"].values())
    hygiene = report["hygiene"]
    assert hygiene["declared_bound"] == 120
    assert not hygiene["exceeds_declared_bound"]


def test_angluin_all_claims_hold_on_the_ring_at_largest_feasible_n():
    # The full 96^3 = 884736-configuration graph: the heavyweight
    # acceptance check (a few seconds of pure-python SCC analysis).
    report = verify_spec("angluin-modk", topology="directed-ring")
    assert report["status"] == VERIFIED
    point = report["points"][0]
    assert point["n"] == 3  # largest feasible under the default budget
    assert point["num_configs"] == 96 ** 3
    assert all(check["status"] == VERIFIED
               for check in point["checks"].values())


def test_angluin_off_ring_closure_is_not_claimed_but_stabilizes():
    report = verify_spec("angluin-modk", topology="complete")
    assert report["status"] == VERIFIED
    checks = report["points"][0]["checks"]
    assert checks["closure"]["status"] == NOT_CLAIMED
    assert checks["closure"]["violations"] > 0  # the event-style predicate
    assert checks["stabilization_reachability"]["status"] == VERIFIED
    assert checks["livelock_free"]["status"] == VERIFIED


def test_summarize_folds_reports_into_the_gate_verdict():
    reports = [verify_spec("ppl"), verify_spec("yokota2021", n=2)]
    summary = summarize(reports)
    assert summary == {"specs": 2, "verified": 1, "violated": 0,
                       "skipped": 1, "ok": True}


def test_verify_all_covers_every_simulated_spec():
    # Tight budget so this stays fast: every spec must still appear, with
    # an explicit status (the CI smoke runs the full-budget version).
    reports = verify_all(max_configs=10000)
    names = [report["spec"] for report in reports]
    assert names == sorted(names)
    assert {"ppl", "yokota2021", "fischer-jiang", "angluin-modk"} <= set(names)
    assert all(report["status"] in (VERIFIED, SKIPPED)
               for report in reports)
    assert summarize(reports)["ok"]


def test_coverage_seeds_span_canonical_and_probe_states():
    """The checker seeds its encoder with the canonical states plus
    ``random_state`` probes, so adversarial starts lie inside the table."""
    from repro.core.encoding import StateEncoder, coverage_seeds
    from repro.protocols.baselines.angluin_modk import AngluinModKProtocol

    protocol = AngluinModKProtocol(2)
    seeds = coverage_seeds(protocol)
    assert len(seeds) > len(list(protocol.canonical_states()))
    encoder = StateEncoder.build(protocol, seeds)
    assert encoder.num_states <= protocol.state_space_size()
