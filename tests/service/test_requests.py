"""Submission parsing and eager validation of service job requests.

A request that could never run must be refused at submission time with the
registry's own message — an accepted job is a runnable job — and the parsed
request must build the exact :class:`ExperimentConfig` the equivalent CLI
invocation would (that identity is what makes service results bit-identical
to ``repro-ssle run``).
"""

from __future__ import annotations

import pytest

from repro.api.config import ExperimentConfig
from repro.service.requests import JobRequest, ValidationError
from repro.store.store import LEGACY_CONFIG_FIELDS


def test_minimal_payload_fills_config_defaults():
    request = JobRequest.from_payload({"protocol": "ppl"})
    assert request.protocol == "ppl"
    assert request.family is None
    assert request.sizes == ExperimentConfig.sizes
    assert request.config == ExperimentConfig(sizes=request.sizes)


def test_full_payload_round_trips_through_describe():
    payload = {
        "protocol": "fischer-jiang", "sizes": [16, 8], "trials": 5,
        "max_steps": 12345, "check_interval": 64, "kappa_factor": 2,
        "seed": 99, "engine": "step", "topology": "directed-ring",
    }
    request = JobRequest.from_payload(payload)
    described = request.describe()
    assert described["sizes"] == [8, 16]  # deduplicated and sorted
    for key in ("protocol", "trials", "max_steps", "check_interval",
                "kappa_factor", "seed", "engine", "topology"):
        assert described[key] == payload[key]


def test_sizes_are_deduplicated_and_sorted_like_the_cli():
    request = JobRequest.from_payload(
        {"protocol": "ppl", "sizes": [16, 8, 8, 32]})
    assert request.sizes == (8, 16, 32)


def test_topology_string_and_params_merge():
    request = JobRequest.from_payload({
        "protocol": "angluin-modk", "sizes": [9],
        "topology": "torus:width=3", "topology_params": {"height": 3},
    })
    assert request.config.topology == "torus"
    assert dict(request.config.topology_params) == {"height": 3, "width": 3}


@pytest.mark.parametrize("payload,fragment", [
    (None, "JSON object"),
    ([], "JSON object"),
    ({}, "'protocol' is required"),
    ({"protocol": "ppl", "bogus": 1}, "unknown request key"),
    ({"protocol": "ppl", "sizes": []}, "non-empty list"),
    ({"protocol": "ppl", "sizes": [8, "x"]}, "entries must be integers"),
    ({"protocol": "ppl", "sizes": [1]}, ">= 2"),
    ({"protocol": "ppl", "sizes": [8, True]}, "entries must be integers"),
    ({"protocol": "ppl", "trials": 0}, "'trials' must be >= 1"),
    ({"protocol": "ppl", "trials": "3"}, "must be an integer"),
    ({"protocol": "ppl", "seed": True}, "must be an integer"),
    # A retired config field is as unknown as any other key.
    ({"protocol": "ppl", **LEGACY_CONFIG_FIELDS}, "unknown request key"),
    ({"protocol": "ppl", "topology": "torus:width=oops"}, "width"),
    ({"protocol": "ppl", "topology": "torus:width=3",
      "topology_params": {"width": 4}}, "both inline"),
    ({"protocol": "ppl", "topology_params": {"width": 3.5}},
     "must be an integer"),
])
def test_malformed_payloads_are_rejected(payload, fragment):
    with pytest.raises(ValidationError) as excinfo:
        JobRequest.from_payload(payload)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("payload,fragment", [
    ({"protocol": "no-such-spec"}, "no-such-spec"),
    ({"protocol": "chen-chen"}, "analytic"),
    ({"protocol": "ppl", "family": "no-such-family"}, "no-such-family"),
    ({"protocol": "ppl", "engine": "warp-drive"}, "warp-drive"),
    # An engine that does not exist: the message names the three that do.
    ({"protocol": "angluin-modk", "sizes": [9], "engine": "numpy"},
     "('auto', 'step', 'batched'), got 'numpy'"),
    ({"protocol": "ppl", "topology": "no-such-topo"}, "no-such-topo"),
    ({"protocol": "ppl", "topology": "complete"}, "complete"),
    ({"protocol": "angluin-modk", "sizes": [25],
      "topology": "torus:width=3,height=3"}, "torus"),
])
def test_validate_runs_the_registry_checks(payload, fragment):
    request = JobRequest.from_payload(payload)
    with pytest.raises(ValidationError) as excinfo:
        request.validate()
    assert fragment in str(excinfo.value)


def test_validate_resolves_the_default_family_per_point():
    request = JobRequest.from_payload(
        {"protocol": "fischer-jiang", "sizes": [8, 12]})
    assert request.validate() == ["adversarial", "adversarial"]


def test_batch_requests_match_the_cli_per_point_shape():
    request = JobRequest.from_payload(
        {"protocol": "ppl", "sizes": [8, 16], "family": "adversarial"})
    batches = request.batch_requests()
    assert [batch.population_size for batch in batches] == [8, 16]
    assert all(batch.spec_name == "ppl" for batch in batches)
    assert all(batch.family == "adversarial" for batch in batches)
    assert all(batch.config is request.config for batch in batches)


# ---------------------------------------------------------------------- #
# Phased scenarios in the request schema
# ---------------------------------------------------------------------- #
def test_scenario_string_parses_like_the_cli_flag():
    request = JobRequest.from_payload({
        "protocol": "angluin-modk", "sizes": [9],
        "scenario": "corrupt-recover:k=2",
    })
    assert request.config.scenario == (
        ("", (), "converge", 0),
        ("corrupt-states", (("k", 2),), "converge", 0),
    )
    assert request.validate() == ["adversarial"]


def test_scenario_json_list_round_trips_through_describe():
    phases = [
        {"perturbation": "", "params": {}, "stop": "converge", "budget": 0},
        {"perturbation": "churn", "params": {"leave": 1, "join": 1},
         "stop": "converge", "budget": 0},
    ]
    request = JobRequest.from_payload({
        "protocol": "angluin-modk", "sizes": [9], "scenario": phases,
    })
    described = request.describe()
    assert described["scenario"] == phases
    # A client can resubmit exactly what describe() echoed.
    resubmitted = JobRequest.from_payload({
        "protocol": "angluin-modk", "sizes": [9],
        "scenario": described["scenario"],
    })
    assert resubmitted.config.scenario == request.config.scenario


def test_degenerate_scenario_request_builds_the_legacy_config():
    plain = JobRequest.from_payload({"protocol": "angluin-modk", "sizes": [9]})
    converge = JobRequest.from_payload({
        "protocol": "angluin-modk", "sizes": [9], "scenario": "converge"})
    assert converge.config == plain.config
    assert plain.describe()["scenario"] == []


@pytest.mark.parametrize("scenario,fragment", [
    (42, "'scenario' must be"),
    ("no-such-scenario", "unknown scenario"),
    ("corrupt-recover:k=oops", "must be an integer"),
    ([{"perturbation": "corrupt-states", "stop": "sometimes"}], "stop mode"),
])
def test_malformed_scenarios_are_rejected_at_submission(scenario, fragment):
    with pytest.raises(ValidationError) as excinfo:
        JobRequest.from_payload({"protocol": "angluin-modk", "sizes": [9],
                                 "scenario": scenario})
    assert fragment in str(excinfo.value)


def test_infeasible_scenarios_are_refused_by_validate():
    request = JobRequest.from_payload({
        "protocol": "angluin-modk", "sizes": [9],
        "scenario": "corrupt-recover:k=99",
    })
    with pytest.raises(ValidationError) as excinfo:
        request.validate()
    assert "1 <= k <= n" in str(excinfo.value)
