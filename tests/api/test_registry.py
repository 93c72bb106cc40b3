"""Tests for the ProtocolSpec registry and the generic run_spec adapter."""

from __future__ import annotations

import pytest

from repro.api import (
    ExperimentConfig,
    ProtocolSpec,
    ensure_angluin_spec,
    evaluate_analytic,
    get_spec,
    list_specs,
    register,
    run_spec,
    runner_for,
    spec_names,
    unregister,
)
from repro.core.configuration import random_configuration
from repro.core.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, Protocol
from repro.core.rng import RandomSource

TINY = ExperimentConfig(sizes=(8,), trials=1, max_steps=600_000,
                        check_interval=32, kappa_factor=4, seed=99)

BUILTIN = ["angluin-modk", "chen-chen", "fischer-jiang", "ppl",
           "thue-morse", "yokota2021"]


# ---------------------------------------------------------------------- #
# Registry contents and lookup
# ---------------------------------------------------------------------- #
def test_builtin_specs_are_registered():
    names = spec_names()
    for name in BUILTIN:
        assert name in names


def test_get_spec_unknown_name_lists_known_names():
    with pytest.raises(KeyError, match="registered"):
        get_spec("no-such-protocol")


def test_register_rejects_duplicates():
    spec = get_spec("ppl")
    with pytest.raises(ValueError, match="already registered"):
        register(spec)


def test_spec_validation_rejects_incomplete_specs():
    with pytest.raises(ValueError):
        ProtocolSpec(name="broken", summary="no factory, no model")
    with pytest.raises(ValueError):
        ProtocolSpec(name="", summary="unnamed", analytic_model=lambda n, c: {})


def test_register_and_unregister_custom_spec():
    base = get_spec("yokota2021")
    custom = ProtocolSpec(
        name="yokota2021-copy",
        summary="a registered-at-runtime alias used by this test",
        factory=base.factory,
        families=dict(base.families),
        stop_predicate=base.stop_predicate,
        rng_label="yokota",
    )
    register(custom)
    try:
        assert "yokota2021-copy" in spec_names()
        result = run_spec("yokota2021-copy", 8, TINY)
        reference = run_spec("yokota2021", 8, TINY)
        assert result.steps == reference.steps
    finally:
        unregister("yokota2021-copy")
    assert "yokota2021-copy" not in spec_names()


# ---------------------------------------------------------------------- #
# Builders get the population exactly when they declare it
# ---------------------------------------------------------------------- #
class _UnhashablePredicateFactory:
    """A stop-predicate factory that cannot be a cache key."""

    __hash__ = None

    def __init__(self) -> None:
        self.calls = []

    def __call__(self, protocol, population):
        self.calls.append(population)
        return lambda states: True


def _spec_with(stop_predicate, family=None) -> ProtocolSpec:
    base = get_spec("yokota2021")
    families = {"adversarial": family or base.families["adversarial"]}
    return ProtocolSpec(name="arity-probe", summary="dispatch by declared arity",
                        factory=base.factory, families=families,
                        stop_predicate=stop_predicate)


def _ingredients(spec):
    protocol = spec.build_protocol(8, TINY)
    return protocol, spec.build_population(8, TINY)


def test_a_builder_signature_is_read_once(monkeypatch):
    from repro.api import registry

    reads = []
    signature = registry.inspect.signature

    def counted(function):
        reads.append(function)
        return signature(function)

    monkeypatch.setattr(registry.inspect, "signature", counted)

    def predicate_factory(protocol, population):
        return lambda states: population.size == len(states)

    def family(protocol, n, rng, population):
        return random_configuration(protocol, population.size, rng)

    spec = _spec_with(predicate_factory, family)
    protocol, population = _ingredients(spec)
    for seed in range(3):
        initial = spec.build_configuration("adversarial", protocol, 8,
                                           RandomSource(seed), population=population)
        assert spec.build_stop_predicate(protocol, population)(initial.states())
    assert reads.count(predicate_factory) == 1
    assert reads.count(family) == 1


def test_an_unhashable_factory_is_dispatched_by_its_signature():
    factory = _UnhashablePredicateFactory()
    spec = _spec_with(factory)
    protocol, population = _ingredients(spec)
    for _ in range(2):
        assert spec.build_stop_predicate(protocol, population)([])
    assert factory.calls == [population, population]


def test_a_builder_without_a_signature_gets_the_short_form():
    spec = _spec_with(lambda protocol: protocol.is_leader)
    protocol, population = _ingredients(spec)
    builtin = _spec_with(bool)  # inspect.signature(bool) raises ValueError
    assert spec.build_stop_predicate(protocol, population) == protocol.is_leader
    assert builtin.build_stop_predicate(protocol, population) is True


# ---------------------------------------------------------------------- #
# Round-trip: every registered spec runs (or evaluates) at a small size
# ---------------------------------------------------------------------- #
def test_every_registered_spec_round_trips():
    for spec in list_specs():
        n = next(size for size in range(8, 16)
                 if not spec.is_simulated or spec.supports(size))
        if spec.is_simulated:
            result = run_spec(spec.name, n, TINY)
            assert result.all_converged, f"{spec.name} did not converge at n={n}"
            assert result.population_size == n
        else:
            model = evaluate_analytic(spec.name, n, TINY)
            assert model["analytic"] is True


@pytest.mark.parametrize("name", [spec.name for spec in list_specs() if spec.is_simulated])
def test_is_leader_agrees_with_the_output_symbol(name):
    """The engines read ``is_leader``; the reports read ``output``."""
    spec = get_spec(name)
    n = next(size for size in range(8, 16) if spec.supports(size))
    protocol = spec.build_protocol(n, TINY)
    rng = RandomSource(5)
    states = (list(protocol.canonical_states())
              + [protocol.random_state(rng) for _ in range(200)])
    for state in states:
        assert protocol.is_leader(state) is (protocol.output(state) == LEADER_OUTPUT)


def test_run_spec_rejects_analytic_specs():
    with pytest.raises(ValueError, match="analytic"):
        run_spec("chen-chen", 8, TINY)


def test_evaluate_analytic_rejects_simulated_specs():
    with pytest.raises(ValueError, match="simulated"):
        evaluate_analytic("ppl", 8, TINY)


def test_run_spec_rejects_unsupported_population():
    with pytest.raises(ValueError, match="does not support"):
        run_spec("angluin-modk", 8, TINY)


def test_run_spec_rejects_unknown_family():
    with pytest.raises(KeyError, match="family"):
        run_spec("ppl", 8, TINY, family="no-such-family")


def test_ppl_spec_exposes_the_adversary_catalogue():
    spec = get_spec("ppl")
    families = spec.family_names()
    for family in ("adversarial", "random", "uniform", "leaderless-trap",
                   "leaderless-hot", "all-leaders", "half-leaders",
                   "corrupted-safe", "invalid-tokens", "stale-signals"):
        assert family in families


def test_runner_for_matches_run_spec():
    runner = runner_for("ppl")
    assert runner(8, TINY).steps == run_spec("ppl", 8, TINY).steps


def test_ensure_angluin_spec_registers_variants_on_demand():
    assert ensure_angluin_spec(2).name == "angluin-modk"
    spec = ensure_angluin_spec(3)
    try:
        assert spec.name == "angluin-mod3"
        assert spec.supports(8) and not spec.supports(9)
        assert run_spec("angluin-mod3", 8, TINY).all_converged
    finally:
        unregister("angluin-mod3")


# ---------------------------------------------------------------------- #
# Re-registration
# ---------------------------------------------------------------------- #
class _CopyRuleProtocol(Protocol):
    """Two states; either the responder copies the initiator or the
    initiator copies the responder."""

    name = "copy-rule"

    def __init__(self, responder_copies: bool) -> None:
        self.responder_copies = responder_copies

    def transition(self, initiator, responder):
        if self.responder_copies:
            return initiator, initiator
        return responder, responder

    def output(self, state):
        return LEADER_OUTPUT if state else FOLLOWER_OUTPUT

    def random_state(self, rng):
        return rng.randint(0, 1)

    def state_space_size(self):
        return 2

    def canonical_states(self):
        return (0, 1)


def _copy_rule_spec(responder_copies: bool) -> ProtocolSpec:
    return ProtocolSpec(
        name="copy-rule-test",
        summary="re-registration fixture",
        factory=lambda n, config: _CopyRuleProtocol(responder_copies),
        families={"adversarial": lambda protocol, n, rng:
                  random_configuration(protocol, n, rng)},
        stop_predicate=lambda protocol: (lambda states: len(set(states)) == 1),
    )


def test_a_re_registered_spec_runs_its_new_protocol():
    """Nothing compiled for a spec may outlive its registration: after
    ``register(..., replace=True)`` the default engine must run the new
    transition rule, exactly as the step engine does."""
    config = ExperimentConfig(trials=4, max_steps=100_000, check_interval=1,
                              seed=5)
    register(_copy_rule_spec(responder_copies=True))
    try:
        first = run_spec("copy-rule-test", 9, config)
        register(_copy_rule_spec(responder_copies=False), replace=True)
        default = run_spec("copy-rule-test", 9, config)
        stepped = run_spec("copy-rule-test", 9, config, engine="step")
    finally:
        unregister("copy-rule-test")
    assert default.steps == stepped.steps
    assert default.steps != first.steps  # the two rules really differ here


def test_a_re_registered_spec_runs_its_new_protocol_in_worker_processes():
    """The same through a worker pool: the workers run the spec as it is
    registered when the batch starts, not as it was at an earlier batch."""
    config = ExperimentConfig(trials=4, max_steps=100_000, check_interval=1,
                              seed=5)
    register(_copy_rule_spec(responder_copies=True))
    try:
        first = run_spec("copy-rule-test", 9, config, workers=2)
        register(_copy_rule_spec(responder_copies=False), replace=True)
        default = run_spec("copy-rule-test", 9, config, workers=2)
        stepped = run_spec("copy-rule-test", 9, config, engine="step")
    finally:
        unregister("copy-rule-test")
    assert default.steps == stepped.steps
    assert default.steps != first.steps
