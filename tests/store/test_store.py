"""Unit tests for the content-addressed results store (record layer)."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.api.config import ExperimentConfig
from repro.api.executor import PhaseResult, TrialResult
from repro.store import (
    ENV_VAR,
    SCHEMA_VERSION,
    ResultsStore,
    batch_digest,
    canonical_config,
    resolve_store,
)

CONFIG = ExperimentConfig(trials=3, max_steps=1000, seed=11)


def _trials(count: int) -> list:
    return [TrialResult(trial=index, steps=100 + index, converged=True,
                        wall_time=0.5, engine="step", protocol_name="P")
            for index in range(count)]


def _meta() -> dict:
    return {"spec": "ppl", "population_size": 8, "family": "adversarial",
            "rng_label": "ppl", "config": canonical_config(CONFIG)}


# ---------------------------------------------------------------------- #
# Key derivation
# ---------------------------------------------------------------------- #
def test_digest_is_stable_and_hex():
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    assert digest == batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    assert len(digest) == 32 and int(digest, 16) >= 0


@pytest.mark.parametrize("change", [
    {"seed": 7},
    {"max_steps": 999},
    {"check_interval": 64},
    {"kappa_factor": 8},
    {"topology": "complete"},
    {"topology_params": (("degree", 3),)},
])
def test_digest_depends_on_every_identity_field(change):
    base = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    other = batch_digest("ppl", 8, "adversarial", "ppl",
                         dataclasses.replace(CONFIG, **change))
    assert base != other, change


def test_digest_depends_on_spec_size_family_and_label():
    base = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    assert base != batch_digest("yokota2021", 8, "adversarial", "ppl", CONFIG)
    assert base != batch_digest("ppl", 16, "adversarial", "ppl", CONFIG)
    assert base != batch_digest("ppl", 8, "leaderless-trap", "ppl", CONFIG)
    # The RNG label feeds the seed-derivation chain, so it is identity too
    # (e.g. the ppl-leaderless harness stream).
    assert base != batch_digest("ppl", 8, "adversarial", "ppl-leaderless", CONFIG)


def test_digest_ignores_non_identity_fields():
    """sizes (sweep-level), trials (extendable), engine (bit-identical tiers)
    must share records: they cannot change any trial's outcome."""
    base = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    for change in ({"sizes": (4, 5, 6)}, {"trials": 99}, {"engine": "step"}):
        assert base == batch_digest(
            "ppl", 8, "adversarial", "ppl", dataclasses.replace(CONFIG, **change)
        ), change


def test_canonical_config_tracks_future_fields():
    """Every identity field of the dataclass lands in the canonical form, so
    a field added later can never be silently left out of the store key."""
    payload = canonical_config(CONFIG)
    expected = {field.name for field in dataclasses.fields(CONFIG)}
    expected -= {"sizes", "trials", "engine"}
    # The empty scenario is omitted by design: legacy configs keep the
    # digests they had before the scenario field existed.
    expected -= {"scenario"}
    # A retired field stays in at its fixed value: the digests written
    # while it existed hash it.
    expected |= {"check_backoff"}
    assert set(payload) == expected
    assert payload["check_backoff"] is False


# ---------------------------------------------------------------------- #
# Record IO
# ---------------------------------------------------------------------- #
def test_save_load_round_trip(tmp_path):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    trials = _trials(3)
    store.save(digest, _meta(), trials)
    assert store.load(digest) == trials


def test_load_missing_record_is_none(tmp_path):
    assert ResultsStore(tmp_path).load("0" * 32) is None


def test_read_only_store_serves_but_never_writes(tmp_path):
    store = ResultsStore(tmp_path, write=False)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(2))
    assert store.load(digest) is None
    assert not any(tmp_path.rglob("*.json"))


@pytest.mark.parametrize("corruption", [
    lambda text: text[: len(text) // 2],          # truncated mid-record
    lambda text: "definitely not json {{{",       # garbage
    lambda text: "",                              # empty file
    lambda text: json.dumps([1, 2, 3]),           # wrong top-level shape
    lambda text: text.replace(f'"schema": {SCHEMA_VERSION}',
                              f'"schema": {SCHEMA_VERSION + 1}', 1),
])
def test_corrupt_records_are_misses_not_crashes(tmp_path, corruption):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(2))
    path = store.record_path(digest)
    path.write_text(corruption(path.read_text()))
    assert store.load(digest) is None


def test_record_with_gap_in_trial_indices_is_a_miss(tmp_path):
    """Trial indices must form the contiguous prefix 0..m-1 — a gap would
    misattribute seeds during a top-up."""
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    trials = _trials(3)
    store.save(digest, _meta(), trials)
    path = store.record_path(digest)
    record = json.loads(path.read_text())
    record["trials"][1]["trial"] = 5
    path.write_text(json.dumps(record))
    assert store.load(digest) is None


def test_record_with_wrong_field_type_is_a_miss(tmp_path):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(1))
    path = store.record_path(digest)
    record = json.loads(path.read_text())
    record["trials"][0]["steps"] = "fast"
    path.write_text(json.dumps(record))
    assert store.load(digest) is None


def test_record_under_wrong_digest_is_a_miss(tmp_path):
    """A record copied/renamed to another address must not be served."""
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(1))
    other = batch_digest("ppl", 16, "adversarial", "ppl", CONFIG)
    target = store.record_path(other)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(store.record_path(digest).read_text())
    assert store.load(other) is None


# ---------------------------------------------------------------------- #
# Maintenance (the `repro-ssle cache` surface)
# ---------------------------------------------------------------------- #
def test_records_and_clear(tmp_path):
    store = ResultsStore(tmp_path)
    digests = []
    for n in (8, 16):
        digest = batch_digest("ppl", n, "adversarial", "ppl", CONFIG)
        meta = dict(_meta(), population_size=n)
        store.save(digest, meta, _trials(2))
        digests.append(digest)
    rows = store.records()
    assert [row["digest"] for row in rows] == sorted(digests)
    assert all(row["trials"] == 2 and row["converged"] == 2 for row in rows)
    assert store.clear(digests[0][:8]) == 1
    assert store.clear() == 1
    assert store.records() == []


def test_record_info_prefix_lookup(tmp_path):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(1))
    record = store.record_info(digest[:6])
    assert record["digest"] == digest and record["spec"] == "ppl"
    with pytest.raises(KeyError):
        store.record_info("ffffffff" * 4)


def test_record_info_ambiguous_prefix_raises(tmp_path):
    store = ResultsStore(tmp_path)
    for n in range(4, 40):
        digest = batch_digest("ppl", n, "adversarial", "ppl", CONFIG)
        store.save(digest, dict(_meta(), population_size=n), _trials(1))
    with pytest.raises((KeyError, ValueError)):
        store.record_info("")  # every digest matches the empty prefix


def test_corrupt_record_flagged_in_listing(tmp_path):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(1))
    store.record_path(digest).write_text("garbage")
    rows = store.records()
    assert rows[0]["corrupt"] is True


# ---------------------------------------------------------------------- #
# Resolution (flags/environment)
# ---------------------------------------------------------------------- #
def test_resolve_store_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_store(None) is None
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "env"))
    from_env = resolve_store(None)
    assert from_env is not None and from_env.root == tmp_path / "env"
    explicit = resolve_store(tmp_path / "flag", write=False)
    assert explicit.root == tmp_path / "flag" and explicit.write is False
    monkeypatch.setenv(ENV_VAR, "")
    assert resolve_store(None) is None


# ---------------------------------------------------------------------- #
# Scenario phases in records
# ---------------------------------------------------------------------- #
def _phased_trials(count: int) -> list:
    return [
        TrialResult(
            trial=index, steps=300, converged=True, wall_time=0.5,
            engine="step", protocol_name="P",
            phases=(
                PhaseResult(phase=0, perturbation="", steps=200,
                            converged=True, engine="step", population_size=8),
                PhaseResult(phase=1, perturbation="corrupt-states", steps=100,
                            converged=True, engine="step", population_size=8),
            ),
        )
        for index in range(count)
    ]


def test_phased_trials_round_trip(tmp_path):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    trials = _phased_trials(2)
    store.save(digest, _meta(), trials)
    loaded = store.load(digest)
    assert loaded == trials
    assert loaded[0].phases[1].perturbation == "corrupt-states"


def test_legacy_records_without_phases_stay_readable(tmp_path):
    """Pre-scenario records carry no 'phases' key; they must load as empty."""
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _trials(2))
    path = store.record_path(digest)
    record = json.loads(path.read_text())
    for entry in record["trials"]:
        entry.pop("phases")
    path.write_text(json.dumps(record))
    loaded = store.load(digest)
    assert loaded is not None and all(t.phases == () for t in loaded)


def test_malformed_phases_make_the_record_a_miss(tmp_path):
    store = ResultsStore(tmp_path)
    digest = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    store.save(digest, _meta(), _phased_trials(1))
    path = store.record_path(digest)
    record = json.loads(path.read_text())
    record["trials"][0]["phases"][0]["steps"] = "many"
    path.write_text(json.dumps(record))
    assert store.load(digest) is None


def test_scenario_field_reaches_the_digest():
    scenario = (("corrupt-states", (("k", 2),), "converge", 0),)
    base = batch_digest("ppl", 8, "adversarial", "ppl", CONFIG)
    other = batch_digest("ppl", 8, "adversarial", "ppl",
                         dataclasses.replace(CONFIG, scenario=scenario))
    assert base != other
    payload = canonical_config(dataclasses.replace(CONFIG, scenario=scenario))
    assert payload["scenario"] == [["corrupt-states", [["k", 2]],
                                    "converge", 0]]


# ---------------------------------------------------------------------- #
# Size-capped eviction (cache clear --max-bytes)
# ---------------------------------------------------------------------- #
def _filled_store(tmp_path, sizes=(8, 16, 32, 64)):
    store = ResultsStore(tmp_path)
    digests = []
    for age, n in enumerate(sizes):
        digest = batch_digest("ppl", n, "adversarial", "ppl", CONFIG)
        store.save(digest, dict(_meta(), population_size=n), _trials(2))
        path = store.record_path(digest)
        # Deterministic mtimes: larger n = written more recently.
        os.utime(path, (1_000_000 + age, 1_000_000 + age))
        digests.append(digest)
    return store, digests


def test_clear_max_bytes_evicts_oldest_first(tmp_path):
    store, digests = _filled_store(tmp_path)
    sizes = {digest: store.record_path(digest).stat().st_size
             for digest in digests}
    total = sum(sizes.values())
    # Budget for all but the oldest record: exactly one eviction.
    budget = total - sizes[digests[0]]
    assert store.clear(max_bytes=budget) == 1
    remaining = set(store.record_digests())
    assert digests[0] not in remaining
    assert remaining == set(digests[1:])


def test_clear_max_bytes_zero_evicts_everything_matching(tmp_path):
    store, digests = _filled_store(tmp_path)
    assert store.clear(max_bytes=0) == len(digests)
    assert store.record_digests() == []


def test_clear_max_bytes_is_a_noop_under_budget(tmp_path):
    store, digests = _filled_store(tmp_path)
    assert store.clear(max_bytes=10 ** 9) == 0
    assert set(store.record_digests()) == set(digests)


def test_clear_max_bytes_composes_with_prefix(tmp_path):
    store, digests = _filled_store(tmp_path)
    # Only the newest record matches the prefix; the budget evicts it even
    # though older non-matching records exist.
    assert store.clear(digests[-1][:8], max_bytes=0) == 1
    assert digests[-1] not in set(store.record_digests())
    assert set(store.record_digests()) == set(digests[:-1])


def test_clear_rejects_negative_max_bytes(tmp_path):
    store = ResultsStore(tmp_path)
    with pytest.raises(ValueError, match="max_bytes"):
        store.clear(max_bytes=-1)
