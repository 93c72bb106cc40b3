"""Execution-level store properties: cold == warm == top-up, bit for bit.

The acceptance suite for the results store: serving a batch from disk must
be indistinguishable from recomputing it — across engines, across
topologies, through every runner path (run_spec, run_batches, the builder)
— and a damaged record must fall back to recomputation, never crash.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.api import BatchRequest, ExperimentConfig, run_batches, run_spec, experiment
from repro.cli import main
from repro.store import ResultsStore, batch_digest

#: The engines angluin-modk runs on.
ENGINES = ["step", "batched"]

#: (engine, topology, params, n) round-trip points: the full engine matrix
#: on the three fast topologies, plus one slower off-ring topology (torus) on
#: the batched tier only — angluin converges slowly there and the
#: cross-engine identity suite already covers torus step==batched.
ROUND_TRIP_POINTS = [
    (engine, topology, (), 5)
    for engine in ENGINES
    for topology in ("directed-ring", "undirected-ring", "complete")
] + [("batched", "torus", (("height", 3), ("width", 3)), 9)]


def _config(engine: str, topology: str, params=(), trials: int = 3,
            **overrides) -> ExperimentConfig:
    return ExperimentConfig(trials=trials, max_steps=2_000_000, seed=99,
                            engine=engine, topology=topology,
                            topology_params=params, **overrides)


# ---------------------------------------------------------------------- #
# The round-trip property
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("engine,topology,params,n", ROUND_TRIP_POINTS)
def test_cold_warm_and_topup_are_bit_identical(tmp_path, engine, topology,
                                               params, n):
    config = _config(engine, topology, params, trials=2)
    baseline = run_spec("angluin-modk", n, config)

    cold_store = ResultsStore(tmp_path)
    cold = run_spec("angluin-modk", n, config, store=cold_store)
    assert cold_store.executed == 2 and cold_store.served == 0
    assert cold.steps == baseline.steps
    assert cold.failures == baseline.failures

    warm_store = ResultsStore(tmp_path)
    warm = run_spec("angluin-modk", n, config, store=warm_store)
    assert warm_store.executed == 0 and warm_store.served == 2
    assert warm.steps == cold.steps and warm.failures == cold.failures

    # Top-up: extend the stored 2-trial batch to 5 by running only 3 more.
    config5 = dataclasses.replace(config, trials=5)
    topup_store = ResultsStore(tmp_path)
    topup = run_spec("angluin-modk", n, config5, store=topup_store)
    assert topup_store.served == 2 and topup_store.executed == 3
    assert topup.steps[:2] == cold.steps
    assert topup.steps == run_spec("angluin-modk", n, config5).steps

    # The topped-up record now serves the 5-trial batch outright.
    final_store = ResultsStore(tmp_path)
    again = run_spec("angluin-modk", n, config5, store=final_store)
    assert final_store.executed == 0 and final_store.served == 5
    assert again.steps == topup.steps


def test_records_are_shared_across_engines(tmp_path):
    """Engine tiers are bit-identical by construction, so the engine is not
    part of the content address: a batch computed on one tier serves all."""
    cold_store = ResultsStore(tmp_path)
    cold = run_spec("angluin-modk", 5, _config("step", "complete"),
                    store=cold_store)
    assert cold_store.executed == 3
    for engine in ENGINES:
        store = ResultsStore(tmp_path)
        warm = run_spec("angluin-modk", 5, _config(engine, "complete"),
                        store=store)
        assert store.executed == 0 and store.served == 3, engine
        assert warm.steps == cold.steps, engine


def test_warm_hit_serves_stored_trials_verbatim(tmp_path):
    """A served trial is the stored record's TrialResult, wall time and all —
    the strongest form of 'bit-identical to the cold run'."""
    config = _config("auto", "directed-ring")
    store = ResultsStore(tmp_path)
    tasks_cold = run_spec("angluin-modk", 5, config, store=store)
    digest = batch_digest("angluin-modk", 5, "adversarial", "angluin", config)
    stored = store.load(digest)
    assert stored is not None and len(stored) == 3

    from repro.api.executor import batch_tasks, run_trials

    warm_results = run_trials(
        batch_tasks(BatchRequest(spec_name="angluin-modk", population_size=5,
                                 config=config)),
        store=ResultsStore(tmp_path),
    )
    assert warm_results == stored
    assert [result.steps for result in warm_results] == tasks_cold.steps


# ---------------------------------------------------------------------- #
# Corruption falls back to recompute
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 3],
    lambda text: "{ not json",
])
def test_corrupt_record_recomputes_and_repairs(tmp_path, damage):
    config = _config("auto", "directed-ring")
    store = ResultsStore(tmp_path)
    cold = run_spec("angluin-modk", 5, config, store=store)
    digest = batch_digest("angluin-modk", 5, "adversarial", "angluin", config)
    path = store.record_path(digest)
    path.write_text(damage(path.read_text()))

    retry_store = ResultsStore(tmp_path)
    retry = run_spec("angluin-modk", 5, config, store=retry_store)
    assert retry_store.served == 0 and retry_store.executed == 3
    assert retry.steps == cold.steps
    # The recompute overwrote the damaged record with a valid one.
    assert ResultsStore(tmp_path).load(digest) is not None


def test_read_only_store_serves_without_writing(tmp_path):
    config = _config("auto", "directed-ring")
    ResultsStore(tmp_path)  # root only; nothing stored yet
    dry_store = ResultsStore(tmp_path, write=False)
    dry = run_spec("angluin-modk", 5, config, store=dry_store)
    assert dry_store.executed == 3
    assert not any(tmp_path.rglob("*.json"))
    # Nothing was persisted, so a second read-only run recomputes again —
    # bit-identically.
    again_store = ResultsStore(tmp_path, write=False)
    again = run_spec("angluin-modk", 5, config, store=again_store)
    assert again_store.served == 0 and again.steps == dry.steps


# ---------------------------------------------------------------------- #
# Sweep-level behavior (run_batches, builder, workers)
# ---------------------------------------------------------------------- #
def test_sweep_resumes_point_by_point(tmp_path):
    """A sweep with some points already stored executes only the others —
    the resume path an interrupted sweep takes on its next invocation."""
    config = _config("auto", "directed-ring", trials=2)
    sizes = [5, 7, 9]
    requests = [BatchRequest(spec_name="angluin-modk", population_size=n,
                             config=config) for n in sizes]
    # Pre-populate only the middle point.
    run_spec("angluin-modk", 7, config, store=ResultsStore(tmp_path))

    store = ResultsStore(tmp_path)
    outcomes = run_batches(requests, store=store)
    assert store.served == 2 and store.executed == 4
    baseline = run_batches(requests)
    assert [[r.steps for r in batch] for batch in outcomes] == \
        [[r.steps for r in batch] for batch in baseline]

    # Everything stored now: the whole sweep is served.
    warm_store = ResultsStore(tmp_path)
    run_batches(requests, store=warm_store)
    assert warm_store.executed == 0 and warm_store.served == 6


def test_same_digest_different_trial_counts_share_one_group(tmp_path):
    """Regression: configs differing only in non-identity fields (here the
    trial count) share a record digest; grouped separately, the smaller
    batch's write-back could shrink the record the larger one just wrote."""
    config1 = _config("auto", "directed-ring", trials=1)
    config3 = _config("auto", "directed-ring", trials=3)
    store = ResultsStore(tmp_path)
    small, large = run_batches(
        [BatchRequest(spec_name="angluin-modk", population_size=5, config=config1),
         BatchRequest(spec_name="angluin-modk", population_size=5, config=config3)],
        store=store,
    )
    assert [r.steps for r in small] == [large[0].steps]
    digest = batch_digest("angluin-modk", 5, "adversarial", "angluin", config3)
    stored = ResultsStore(tmp_path).load(digest)
    assert stored is not None and len(stored) == 3  # not shrunk to 1

    # The reverse order must not shrink an existing 3-trial record either.
    run_batches(
        [BatchRequest(spec_name="angluin-modk", population_size=5, config=config1)],
        store=ResultsStore(tmp_path),
    )
    assert len(ResultsStore(tmp_path).load(digest)) == 3


def test_builder_no_store_write_leaves_shared_store_writable(tmp_path):
    """Regression: no_store_write() must scope read-onlyness to its own
    chain, not flip the caller's store object for every other run."""
    shared = ResultsStore(tmp_path)
    (experiment("angluin-modk").on_ring(5).trials(1)
     .store(shared).no_store_write().run())
    assert shared.write is True
    assert not any(tmp_path.rglob("*.json"))
    (experiment("angluin-modk").on_ring(5).trials(1).store(shared).run())
    assert any(tmp_path.rglob("*.json"))


def test_parallel_execution_with_store_matches_serial(tmp_path):
    config = _config("auto", "directed-ring", trials=4)
    serial = run_spec("angluin-modk", 5, config)
    store = ResultsStore(tmp_path / "parallel")
    parallel = run_spec("angluin-modk", 5, config, workers=2, store=store)
    assert store.executed == 4
    assert parallel.steps == serial.steps
    warm_store = ResultsStore(tmp_path / "parallel")
    warm = run_spec("angluin-modk", 5, config, workers=2, store=warm_store)
    assert warm_store.executed == 0 and warm.steps == serial.steps


def test_builder_store_chain(tmp_path):
    def build():
        return (experiment("angluin-modk")
                .on_ring(5)
                .trials(2)
                .seed(13)
                .store(tmp_path))

    cold = build().run()
    warm_builder = build()
    warm = warm_builder.run()
    assert warm.steps == cold.steps
    assert warm_builder._store.executed == 0 and warm_builder._store.served == 2


def test_builder_no_store_write(tmp_path):
    builder = (experiment("angluin-modk").on_ring(5).trials(1)
               .store(tmp_path).no_store_write())
    builder.run()
    assert not any(tmp_path.rglob("*.json"))
    with pytest.raises(ValueError):
        experiment("angluin-modk").no_store_write()


#: A record the retired numpy tier wrote: ``repro-ssle run angluin-modk
#: --sizes 9 --trials 2 --store DIR`` before that tier was deleted.
NUMPY_TIER_STORE = Path(__file__).parent / "fixtures" / "numpy-tier-store"


def test_a_numpy_tier_record_still_serves_every_trial(tmp_path, capsys, monkeypatch):
    """The engine is not part of the digest, so a record written by an
    engine that no longer exists serves the same command warm."""
    monkeypatch.delenv("REPRO_STORE", raising=False)  # the fresh run is storeless
    root = tmp_path / "store"
    shutil.copytree(NUMPY_TIER_STORE, root)
    (record,) = root.rglob("*.json")
    assert {trial["engine"] for trial in json.loads(record.read_text())["trials"]} \
        == {"numpy"}
    argv = ["run", "angluin-modk", "--sizes", "9", "--trials", "2", "--format", "json"]

    assert main(argv + ["--store", str(root)]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["store"]["executed"] == 0 and warm["store"]["served"] == 2
    assert main(argv) == 0
    fresh = json.loads(capsys.readouterr().out)
    steps = [[trial["steps"] for trial in result["trials"]]
             for result in (warm["results"][0], fresh["results"][0])]
    assert steps[0] == steps[1] == [512, 512]


def test_stored_record_contents_are_inspectable(tmp_path):
    """Records carry the full key fields, engine, and versions — the
    contract `repro-ssle cache info` and future schema migrations rely on."""
    config = _config("auto", "complete")
    store = ResultsStore(tmp_path)
    run_spec("angluin-modk", 5, config, store=store)
    digest = batch_digest("angluin-modk", 5, "adversarial", "angluin", config)
    record = json.loads(store.record_path(digest).read_text())
    assert record["spec"] == "angluin-modk"
    assert record["population_size"] == 5
    assert record["family"] == "adversarial"
    assert record["rng_label"] == "angluin"
    assert record["config"]["topology"] == "complete"
    assert "engine" not in record["config"]  # engine is not identity
    assert record["versions"]["schema"] == record["schema"]
    assert all(trial["engine"] in ("step", "batched")
               for trial in record["trials"])
