"""Parallel trial runner: fan independent trials out over worker processes.

Every experiment in this package is, at bottom, a set of *independent*
trials — grouped into batches that share a protocol, population size, and
configuration.  This module turns batches into :class:`TrialTask` records
(primitive, picklable) and executes them either serially in-process or on a
:class:`concurrent.futures.ProcessPoolExecutor`.  One pool serves an
arbitrary mix of batches (:func:`run_batches`), so whole scaling sweeps and
Table-1 runs drain a single flat task list instead of idling the pool
between ``(protocol, n)`` points.

Determinism
-----------
Parallel execution is bit-for-bit identical to serial execution for the same
seed because all randomness is decided *before* the fan-out: the parent
process derives one configuration seed and one scheduler seed per trial from
the master seed (mirroring the spawn chain the serial
:func:`repro.analysis.convergence.measure_convergence` loop has always used)
and ships only those integers to the workers.  A worker reconstructs its
:class:`~repro.core.rng.RandomSource` streams from the integers, so the order
in which workers run — or whether they run in another process at all — cannot
change any trial's outcome.  Only wall-clock timings differ between modes.
Batches derive their seeds independently (the stream label is a pure function
of the batch's ``rng_label`` and ``n``), so a flat multi-batch task list is
seed-for-seed identical to running each batch alone.

Workers re-resolve the protocol spec *by name* from
:mod:`repro.api.registry`, so nothing protocol-specific (factories, stop
predicates, oracle factories) ever crosses the process boundary; the shared
:class:`ExperimentConfig` of each batch crosses it once per worker (a pool
initializer argument), not once per trial.  Specs registered at import time
are therefore visible in every worker; specs registered dynamically at
runtime additionally require the ``fork`` start method (the default on
Linux, and forced below when available).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.config import ExperimentConfig
from repro.core.rng import RandomSource


@dataclass(frozen=True)
class TrialTask:
    """One independent trial, fully described by picklable primitives."""

    spec_name: str
    population_size: int
    trial: int
    family: str
    configuration_seed: int
    scheduler_seed: int
    config: ExperimentConfig
    #: The resolved RNG stream label of the batch this trial belongs to.
    #: Part of the batch's identity (the seeds above are derived from it),
    #: which is how the results store addresses records; execution itself
    #: never reads it, so worker-side reconstructions may leave it empty.
    rng_label: str = ""


@dataclass(frozen=True)
class PhaseResult:
    """One scenario phase's breakdown within a :class:`TrialResult`.

    Lives here (not in :mod:`repro.scenario`) so the results store and the
    analysis layer can reconstruct stored trials without importing the
    scenario runtime.
    """

    #: Zero-based position of the phase in the scenario.
    phase: int
    #: Perturbation applied before this phase ran ("" for none).
    perturbation: str
    #: Steps this phase executed.
    steps: int
    #: True when the phase's stop condition was met inside its budget
    #: (always True for fixed-budget "run" phases).
    converged: bool
    #: Engine that executed this phase.
    engine: str = "step"
    #: Population size this phase ran at (churn changes it).
    population_size: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: steps to the stop predicate, or a budget miss.

    For scenario trials, ``steps``/``converged`` aggregate over the phases
    (total steps; every converge phase satisfied) and ``phases`` carries the
    per-phase breakdown; legacy single-convergence trials leave ``phases``
    empty and are byte-identical to all previous releases.
    """

    trial: int
    steps: int
    converged: bool
    wall_time: float
    #: Which engine actually executed the trial ("step" or "batched";
    #: ``auto`` resolves to "batched").  Both engines produce identical
    #: steps/converged for the same seeds.
    engine: str = "step"
    #: Display name of the protocol instance that ran.  The worker builds
    #: the protocol anyway, so reporting the name here lets aggregators
    #: (run_spec, the builder) resolve it without constructing a throwaway
    #: instance of their own before the fan-out.
    protocol_name: str = ""
    #: Per-phase breakdown of a scenario trial (empty for legacy trials).
    phases: Tuple[PhaseResult, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["phases"] = [dict(phase) for phase in payload["phases"]]
        return payload


@dataclass(frozen=True)
class BatchRequest:
    """One ``(protocol, n)`` point of a sweep, as the shared pool sees it.

    ``family``/``trials``/``rng_label`` default exactly like
    :func:`repro.api.registry.run_spec`'s parameters, so folding a sweep
    into requests reproduces the per-point random streams bit-for-bit.
    """

    spec_name: str
    population_size: int
    config: ExperimentConfig
    family: Optional[str] = None
    trials: Optional[int] = None
    rng_label: Optional[str] = None


def trial_tasks(
    spec_name: str,
    n: int,
    config: ExperimentConfig,
    family: str,
    trials: Optional[int] = None,
    rng_label: Optional[str] = None,
) -> List[TrialTask]:
    """Derive the per-trial seed pairs for one batch, in trial order.

    ``rng_label`` defaults to ``spec_name``; callers override it to
    reproduce a spec's own stream label (``ProtocolSpec.rng_label``).
    """
    count = config.trials if trials is None else trials
    if count < 1:
        raise ValueError(f"trials must be >= 1, got {count}")
    label = rng_label or spec_name
    source = config.rng(f"{label}-{n}")
    tasks: List[TrialTask] = []
    for trial in range(count):
        trial_rng = source.spawn(f"trial-{trial}")
        tasks.append(
            TrialTask(
                spec_name=spec_name,
                population_size=n,
                trial=trial,
                family=family,
                configuration_seed=trial_rng.spawn("configuration").seed,
                scheduler_seed=trial_rng.spawn("scheduler").seed,
                config=config,
                rng_label=label,
            )
        )
    return tasks


def execute_trial(task: TrialTask) -> TrialResult:
    """Run one trial to its stop predicate (serial path and worker entry point).

    The engine comes from ``task.config.engine``: ``"auto"`` runs the
    batched engine's lazy table (see
    :meth:`repro.api.registry.ProtocolSpec.build_simulation`).  On either
    engine the trial's random streams — and therefore its step count and
    outcome — are bit-identical.
    """
    from repro.api.registry import get_spec

    spec = get_spec(task.spec_name)
    protocol = spec.build_protocol(task.population_size, task.config)
    population = spec.build_population(task.population_size, task.config)
    initial = spec.build_configuration(
        task.family, protocol, task.population_size,
        RandomSource(task.configuration_seed),
        population=population,
    )
    if task.config.scenario:
        # Phased scenario: the runtime replays phase 0 exactly like the
        # legacy path below (same ingredients, same streams) and then
        # perturbs and re-converges per phase.  Imported lazily — the
        # runtime sits above this module in the import graph.
        from repro.scenario.runtime import execute_scenario

        started = time.perf_counter()
        outcome = execute_scenario(spec, task, protocol, population, initial)
        return TrialResult(
            trial=task.trial,
            steps=outcome.steps,
            converged=outcome.converged,
            wall_time=time.perf_counter() - started,
            engine=outcome.engine,
            protocol_name=outcome.protocol_name,
            phases=outcome.phases,
        )
    started = time.perf_counter()
    simulation = spec.build_simulation(
        protocol, population, initial, RandomSource(task.scheduler_seed),
        engine=task.config.engine,
    )
    predicate = spec.build_stop_predicate(protocol, population)
    run = simulation.run_until(
        predicate,
        max_steps=task.config.max_steps,
        check_interval=task.config.check_interval,
    )
    return TrialResult(
        trial=task.trial,
        steps=run.steps,
        converged=run.satisfied,
        wall_time=time.perf_counter() - started,
        engine=simulation.tier,
        protocol_name=protocol.name,
    )


# ---------------------------------------------------------------------- #
# Pool plumbing
# ---------------------------------------------------------------------- #
def _pool_context():
    """Prefer ``fork`` so dynamically registered specs reach the workers.

    Linux only: macOS still offers ``fork`` but CPython switched its default
    to ``spawn`` there because forked children can abort inside system
    frameworks — respect the platform default everywhere else.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


#: Ceiling on the computed map chunksize: IPC amortization saturates quickly,
#: while unbounded chunks hand one worker a long run of same-batch expensive
#: trials in a heterogeneous sweep (the flat list is ordered batch-by-batch).
_MAX_CHUNKSIZE = 16


def _chunksize(task_count: int, pool_size: int) -> int:
    """Batch ~4 chunks per worker so small trials stop paying one IPC
    round-trip each, while load stays balanced across stragglers."""
    return max(1, min(task_count // (4 * pool_size), _MAX_CHUNKSIZE))


#: Worker-side registry of batch configs, filled once per worker by the pool
#: initializer — the config crosses the process boundary per worker, not per
#: trial (tasks then reference it by index).
_WORKER_CONFIGS: Dict[int, ExperimentConfig] = {}

#: A light task: every TrialTask field except the config, which is replaced
#: by its index into the initializer-shipped config table.
_LightTask = Tuple[int, str, int, int, str, int, int]


def _init_worker(configs: Dict[int, ExperimentConfig]) -> None:
    _WORKER_CONFIGS.clear()
    _WORKER_CONFIGS.update(configs)


def _execute_light(item: _LightTask) -> TrialResult:
    config_id, spec_name, n, trial, family, conf_seed, sched_seed = item
    return execute_trial(TrialTask(
        spec_name=spec_name,
        population_size=n,
        trial=trial,
        family=family,
        configuration_seed=conf_seed,
        scheduler_seed=sched_seed,
        config=_WORKER_CONFIGS[config_id],
    ))


def _result_stream(tasks: Sequence[TrialTask], workers: Optional[int],
                   pool: "ProcessPoolExecutor | None" = None):
    """Yield one :class:`TrialResult` per task, in task order.

    The execution core shared by the plain and store-backed paths: serial
    in-process for ``workers`` ``None``/``<= 1``, one process pool
    otherwise.  A generator so the store-backed caller can persist each
    batch the moment its last trial completes — an interrupted sweep keeps
    every finished point.

    ``pool`` hands execution to a caller-owned, long-lived executor (the
    experiment service's warm pool) instead of creating one: tasks then
    cross the process boundary whole (the pool's workers were initialized
    long before this run's configs existed), and the pool is never shut
    down here — many concurrent runs may share it.

    On ``KeyboardInterrupt`` — or when the caller closes the generator
    early — an owned pool is shut down *cleanly*: queued trials are
    cancelled, in-flight trials finish so the workers exit without
    corruption, and the interrupt is re-raised for the caller's write-back.
    """
    if pool is not None:
        if tasks:
            yield from pool.map(
                execute_trial, tasks,
                chunksize=_chunksize(len(tasks),
                                     getattr(pool, "_max_workers", None) or 1))
        return
    if workers is None or workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield execute_trial(task)
        return
    configs: List[ExperimentConfig] = []
    config_ids: Dict[Tuple, int] = {}
    items: List[_LightTask] = []
    for task in tasks:
        key = task.config.cache_key()
        config_id = config_ids.get(key)
        if config_id is None:
            config_id = len(configs)
            configs.append(task.config)
            config_ids[key] = config_id
        items.append((config_id, task.spec_name, task.population_size,
                      task.trial, task.family, task.configuration_seed,
                      task.scheduler_seed))
    pool_size = min(workers, len(tasks))
    owned = ProcessPoolExecutor(max_workers=pool_size,
                                mp_context=_pool_context(),
                                initializer=_init_worker,
                                initargs=(dict(enumerate(configs)),))
    try:
        yield from owned.map(_execute_light, items,
                             chunksize=_chunksize(len(items), pool_size))
    except (KeyboardInterrupt, GeneratorExit):
        # Drop every queued trial; the final shutdown below still waits for
        # the in-flight ones so workers die cleanly, then the interrupt
        # continues to the caller (which may write completed batches back).
        owned.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        owned.shutdown(wait=True)


#: Per-result callback: ``on_result(position, task, result, served)`` with
#: ``position`` the task's index in the sequence handed to
#: :func:`run_trials`, and ``served`` True when the result came from the
#: results store rather than an execution.
OnResult = Callable[[int, TrialTask, TrialResult, bool], None]


def run_trials(tasks: Sequence[TrialTask],
               workers: Optional[int] = None,
               store=None,
               on_result: Optional[OnResult] = None,
               pool: "ProcessPoolExecutor | None" = None) -> List[TrialResult]:
    """Execute a flat task list, serially or across worker processes.

    ``workers=None`` (or ``<= 1``) runs in-process; any larger value fans the
    tasks out over one process pool.  Tasks may mix batches freely (that is
    how :func:`run_batches` shares its pool).  Results come back in task
    order either way, and with identical per-trial step counts (see the
    module docstring).

    ``store`` (a :class:`repro.store.ResultsStore`) serves any trial whose
    batch record is already on disk and executes only the rest, writing
    completed batches back; results are bit-identical to a storeless run
    because every trial's seeds are derived per trial index before any
    execution (a stored 20-trial batch extends to 50 by running exactly
    trials 20..49).

    ``on_result`` is invoked once per trial as its result becomes available
    — store-served trials first (they are known before anything executes),
    then executed trials in task order — which is what gives the experiment
    service its live served/executed progress counters.  ``pool`` reuses a
    caller-owned long-lived executor instead of creating one (see
    :func:`_result_stream`); ``workers`` is then ignored.

    A ``KeyboardInterrupt`` mid-run shuts the owned pool down cleanly
    (queued trials cancelled, in-flight trials finished) and — on the store
    path — writes every batch's completed contiguous trial prefix back
    before re-raising, so an interrupted sweep resumes instead of
    recomputing.

    A :class:`BrokenProcessPool` — a worker process OOM-killed or otherwise
    dead — is survived once on an *owned* pool: a fresh pool is built and
    only the not-yet-yielded tail of the task list re-runs (determinism
    makes the re-run bit-identical; with a store it is mostly served from
    cache).  A second break raises a ``RuntimeError`` diagnostic instead of
    retrying forever.  On a caller-owned ``pool`` the exception propagates
    — the pool's owner (the service's :class:`WarmPool`) does the
    rebuilding, since other runs share that pool.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if store is None:
        return _run_plain_trials(tasks, workers, on_result, pool)
    return _run_stored_trials(tasks, workers, store, on_result, pool)


def _broken_pool_diagnostic(done: int, total: int) -> str:
    return (
        f"process pool broke twice while executing trials "
        f"({done} of {total} completed); a worker process is dying "
        "repeatedly — likely killed by the OS (OOM) or crashing on a "
        "specific trial. Re-run serially (workers=1) to isolate it.")


def _run_plain_trials(tasks: Sequence[TrialTask], workers: Optional[int],
                      on_result: Optional[OnResult],
                      pool: "ProcessPoolExecutor | None",
                      ) -> List[TrialResult]:
    """The storeless path of :func:`run_trials`, with one pool rebuild.

    Results accumulate across pool incarnations: after a break, only tasks
    whose results were never yielded re-run on the fresh pool.
    """
    results: List[TrialResult] = []
    rebuilt = False
    while True:
        stream = _result_stream(tasks[len(results):], workers, pool)
        try:
            for outcome in stream:
                position = len(results)
                results.append(outcome)
                if on_result is not None:
                    on_result(position, tasks[position], outcome, False)
        except KeyboardInterrupt:
            stream.close()  # shuts an owned pool down promptly
            raise
        except BrokenProcessPool as error:
            if pool is not None:
                raise  # shared pool: its owner rebuilds (WarmPool.run_point)
            if rebuilt:
                raise RuntimeError(
                    _broken_pool_diagnostic(len(results), len(tasks))
                ) from error
            rebuilt = True
            continue
        return results


# ---------------------------------------------------------------------- #
# Results-store integration
# ---------------------------------------------------------------------- #
@dataclass
class _StoreGroup:
    """One batch's store bookkeeping while a stored run is in flight."""

    digest: str
    cached: List[TrialResult]
    positions: List[int] = dataclass_field(default_factory=list)
    pending: int = 0


def _run_stored_trials(tasks: Sequence[TrialTask], workers: Optional[int],
                       store, on_result: Optional[OnResult] = None,
                       pool: "ProcessPoolExecutor | None" = None,
                       ) -> List[TrialResult]:
    """The store-aware executor: serve cached trials, run and persist the rest.

    Tasks are grouped into batches by identity (spec, size, family, RNG
    label, config); each batch's record is loaded once and consulted per
    trial index.  Missing trials execute through the same serial/pool core
    as a storeless run, and a batch is written back — cached prefix plus
    fresh results, as one contiguous record — the moment its last missing
    trial completes, so an interrupted sweep resumes point-by-point.

    A ``KeyboardInterrupt`` mid-stream additionally writes back every
    *partially* completed batch's contiguous result prefix before
    re-raising: a Ctrl-C can no longer lose finished trials that a resume
    would have served from the store.
    """
    from repro.store.store import batch_digest

    # Group strictly by digest — the record's address.  Configs differing
    # only in non-identity fields (trials/sizes/engine) have distinct
    # cache_key()s but the SAME digest; were they separate groups, each
    # would hold its own stale `cached` snapshot and the last write-back
    # could shrink a record the other group had just extended.
    digest_by_key: Dict[Tuple, str] = {}
    groups: Dict[str, _StoreGroup] = {}
    ordered_groups: List[_StoreGroup] = []
    group_of: Dict[int, _StoreGroup] = {}
    for position, task in enumerate(tasks):
        label = task.rng_label or task.spec_name
        key = (task.spec_name, task.population_size, task.family, label,
               task.config.cache_key())
        digest = digest_by_key.get(key)
        if digest is None:
            digest = batch_digest(task.spec_name, task.population_size,
                                  task.family, label, task.config)
            digest_by_key[key] = digest
        group = groups.get(digest)
        if group is None:
            group = _StoreGroup(digest=digest,
                                cached=store.load(digest) or [])
            groups[digest] = group
            ordered_groups.append(group)
        group.positions.append(position)
        group_of[position] = group

    results: List[Optional[TrialResult]] = [None] * len(tasks)
    pending: List[int] = []
    for group in ordered_groups:
        for position in group.positions:
            if tasks[position].trial < len(group.cached):
                results[position] = group.cached[tasks[position].trial]
            else:
                pending.append(position)
                group.pending += 1
    store.served += len(tasks) - len(pending)
    store.executed += len(pending)
    if on_result is not None:
        for position, cached in enumerate(results):
            if cached is not None:
                on_result(position, tasks[position], cached, True)

    completed = 0
    rebuilt = False
    while completed < len(pending):
        stream = _result_stream(
            [tasks[position] for position in pending[completed:]],
            workers, pool)
        try:
            for position, outcome in zip(pending[completed:], stream):
                results[position] = outcome
                completed += 1
                if on_result is not None:
                    on_result(position, tasks[position], outcome, False)
                group = group_of[position]
                group.pending -= 1
                if group.pending == 0:
                    _write_back(store, group, tasks, results)
        except KeyboardInterrupt:
            # Shut the pool down (queued trials cancelled, in-flight
            # finished), then persist what every unfinished batch already
            # produced: its contiguous prefix is a valid record a resumed
            # sweep tops up.
            stream.close()
            for group in ordered_groups:
                if group.pending > 0:
                    _write_back(store, group, tasks, results)
            raise
        except BrokenProcessPool as error:
            # Persist every partial batch first — whatever happens next,
            # the finished prefixes are resumable — then rebuild once (the
            # re-run's head is served straight from what was just saved).
            for group in ordered_groups:
                if group.pending > 0:
                    _write_back(store, group, tasks, results)
            if pool is not None:
                raise  # shared pool: its owner rebuilds (WarmPool.run_point)
            if rebuilt:
                raise RuntimeError(
                    _broken_pool_diagnostic(
                        len(tasks) - (len(pending) - completed), len(tasks))
                ) from error
            rebuilt = True
            continue
    return results  # type: ignore[return-value]  # every slot is filled above


def _write_back(store, group: _StoreGroup, tasks: Sequence[TrialTask],
                results: Sequence[Optional[TrialResult]]) -> None:
    """Persist one batch: cached trials merged with whatever has finished.

    Only the contiguous index prefix is stored (the record invariant that
    keeps top-ups sound), and only when the run added trials beyond what
    the record already held.  Called mid-run on an interrupt, some
    positions may still be unfilled — they simply truncate the prefix.
    """
    if not store.write:
        return
    from repro.store.store import canonical_config

    merged: Dict[int, TrialResult] = dict(enumerate(group.cached))
    for position in group.positions:
        if results[position] is not None:
            merged[tasks[position].trial] = results[position]
    trials: List[TrialResult] = []
    while len(trials) in merged:
        trials.append(merged[len(trials)])
    if len(trials) <= len(group.cached):
        return
    task = tasks[group.positions[0]]
    store.save(group.digest, {
        "spec": task.spec_name,
        "population_size": task.population_size,
        "family": task.family,
        "rng_label": task.rng_label or task.spec_name,
        "config": canonical_config(task.config),
    }, trials)


def validate_batch(request: BatchRequest) -> str:
    """Eager checks for one sweep point; returns the resolved family.

    Mirrors :func:`repro.api.registry.run_spec`'s eager validation (the spec
    must be simulated, the engine, size, topology, and family must all
    apply) without deriving any seeds — the experiment service runs exactly
    this at submission time so a bad request is rejected with a 400 before
    it ever reaches the queue.  ``ValueError``/``KeyError`` carry the
    user-facing message.

    Every independent check runs even after one fails, so a misconfigured
    request reports *all* of its problems in one pass.  A single problem
    re-raises its original exception unchanged (an unknown family is still
    a ``KeyError``, a bad engine still a ``ValueError``); multiple
    problems are folded into one ``ValueError`` listing each.
    """
    from repro.api.registry import get_spec, resolve_engine
    from repro.topology.registry import validate_topology

    # Without a known simulated spec nothing downstream is checkable, so
    # these two remain genuinely fail-fast.
    spec = get_spec(request.spec_name)
    if not spec.is_simulated:
        raise ValueError(
            f"protocol {request.spec_name!r} is analytic; "
            "use evaluate_analytic() instead"
        )
    config = request.config
    n = request.population_size
    problems: List[Exception] = []

    def attempt(check: Callable[[], object]) -> None:
        try:
            check()
        except (ValueError, KeyError) as error:
            problems.append(error)

    attempt(lambda: resolve_engine(config.engine))
    attempt(lambda: spec.require_supported(n))

    def check_topology() -> None:
        spec.require_topology(config.topology)
        validate_topology(config.topology, n, **config.topology_kwargs())

    attempt(check_topology)
    if config.scenario:
        from repro.scenario.runtime import validate_scenario

        attempt(lambda: validate_scenario(config.scenario, spec, n, config))
    family = request.family or spec.default_family
    attempt(lambda: spec.require_family(family))
    if request.trials is not None and request.trials < 1:
        problems.append(ValueError(
            f"trials must be >= 1, got {request.trials}"))
    if not problems:
        return family
    if len(problems) == 1:
        raise problems[0]
    details = "; ".join(
        str(error.args[0]) if error.args else str(error)
        for error in problems)
    raise ValueError(
        f"invalid request for {request.spec_name!r} (n={n}): "
        f"{len(problems)} problems: {details}")


def batch_tasks(request: BatchRequest) -> List[TrialTask]:
    """Validate one sweep point and derive its trial tasks.

    :func:`validate_batch` carries the fail-fast checks (so a bad point
    aborts the whole sweep before any trial runs); seeds are then derived
    exactly as a standalone run would derive them.
    """
    from repro.api.registry import get_spec

    family = validate_batch(request)
    spec = get_spec(request.spec_name)
    return trial_tasks(
        request.spec_name, request.population_size, request.config, family,
        trials=request.trials,
        rng_label=request.rng_label or spec.rng_label or request.spec_name,
    )


#: Per-point callback of :func:`run_batches`:
#: ``on_point_done(index, request, outcomes)`` with ``index`` the request's
#: position and ``outcomes`` its trial results in trial order.
OnPointDone = Callable[[int, BatchRequest, List[TrialResult]], None]


def run_batches(requests: Sequence[BatchRequest],
                workers: Optional[int] = None,
                store=None,
                on_point_done: Optional[OnPointDone] = None,
                pool: "ProcessPoolExecutor | None" = None,
                ) -> List[List[TrialResult]]:
    """Execute many ``(protocol, n)`` batches on one shared process pool.

    The sweep-level fan-out: every request's trials join one flat task list
    drained by a single pool, so workers stay busy across point boundaries
    instead of idling while a nearly-finished point drains.  Per-batch seed
    derivation is unchanged (each batch's streams depend only on its own
    label and size), so results — returned as one ``List[TrialResult]`` per
    request, in request order — are bit-identical to running each batch
    alone, serially or in parallel.

    ``store`` consults the results store per batch: fully-cached points run
    zero trials, partially-cached points top up only the missing tail, and
    each point is persisted as soon as it completes — which is what lets an
    interrupted sweep resume point-by-point on the next invocation.  A
    ``KeyboardInterrupt`` mid-sweep shuts the pool down cleanly and writes
    every batch's finished prefix back before re-raising.

    ``on_point_done`` fires the moment a point's last trial result is
    available (sweep CLIs print incremental progress with it); with a
    store, fully-cached points fire before any execution starts, so points
    may complete out of request order.  ``pool`` reuses a caller-owned
    long-lived executor (see :func:`run_trials`).

    Validation sweeps *all* points before any seed derivation: a sweep
    with several bad points reports every one of them (with its request
    index) in a single error instead of stopping at the first.
    """
    invalid: List[Tuple[int, Exception]] = []
    for index, request in enumerate(requests):
        try:
            validate_batch(request)
        except (ValueError, KeyError) as error:
            invalid.append((index, error))
    if len(invalid) == 1:
        raise invalid[0][1]  # one bad point: the original error says it all
    if invalid:
        lines = []
        for index, error in invalid:
            request = requests[index]
            message = error.args[0] if error.args else str(error)
            lines.append(f"point {index} ({request.spec_name!r}, "
                         f"n={request.population_size}): {message}")
        summary = "\n  ".join(lines)
        raise ValueError(
            f"invalid sweep: {len(invalid)} of {len(requests)} points "
            f"rejected:\n  {summary}")
    per_batch = [batch_tasks(request) for request in requests]
    flat: List[TrialTask] = []
    point_of: List[int] = []
    for index, tasks in enumerate(per_batch):
        flat.extend(tasks)
        point_of.extend([index] * len(tasks))
    on_result: Optional[OnResult] = None
    if on_point_done is not None:
        offsets: List[int] = []
        cursor = 0
        for tasks in per_batch:
            offsets.append(cursor)
            cursor += len(tasks)
        remaining = [len(tasks) for tasks in per_batch]
        slots: List[List[Optional[TrialResult]]] = [
            [None] * len(tasks) for tasks in per_batch]

        def on_result(position: int, task: TrialTask, result: TrialResult,
                      served: bool) -> None:
            point = point_of[position]
            slots[point][position - offsets[point]] = result
            remaining[point] -= 1
            if remaining[point] == 0:
                on_point_done(point, requests[point], list(slots[point]))

    outcomes = run_trials(flat, workers=workers, store=store,
                          on_result=on_result, pool=pool)
    grouped: List[List[TrialResult]] = []
    cursor = 0
    for tasks in per_batch:
        grouped.append(outcomes[cursor:cursor + len(tasks)])
        cursor += len(tasks)
    return grouped
