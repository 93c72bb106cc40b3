"""Benchmark — parallel trial runner: sweep speedup versus serial execution.

The :mod:`repro.api.executor` fans independent trials out over a process
pool while keeping per-trial step counts bit-identical to serial execution
(all randomness is derived in the parent before the fan-out).  This
benchmark measures the wall-clock speedup of that fan-out on a trial batch
large enough to keep every worker busy, and asserts the determinism
contract that makes the parallel path safe to use everywhere.

Pass larger sizes through ``REPRO_BENCH_SIZES`` (comma-separated) to see
the speedup grow with per-trial cost; on tiny rings the process start-up
overhead can dominate, so the speedup assertion here is deliberately soft.
"""

from __future__ import annotations

import os
import time

from repro.api import BatchRequest, ExperimentConfig, run_batches, run_trials, trial_tasks
from repro.experiments.reporting import format_table

#: Trials per ring size — enough to occupy a small pool several times over.
TRIALS = 8


def _workers() -> int:
    return min(4, os.cpu_count() or 1)


def _batch(bench_config: ExperimentConfig, n: int):
    return trial_tasks("ppl", n, bench_config, "adversarial", trials=TRIALS)


def _timed(fn) -> tuple:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_parallel_sweep_speedup(benchmark, bench_config):
    """Parallel-vs-serial wall time over the full sweep, identical results.

    The serial side runs one batch per size in process; the parallel side
    runs all sizes' trials in one ``run_batches`` call, on one pool.
    """
    workers = _workers()
    sizes = bench_config.sizes

    serial_results = {}
    serial_time = 0.0
    for n in sizes:
        outcome, elapsed = _timed(lambda n=n: run_trials(_batch(bench_config, n)))
        serial_results[n] = outcome
        serial_time += elapsed

    def parallel_sweep():
        # One run_batches call over every size, on one pool: how the sweep
        # CLIs run a parallel sweep.
        requests = [BatchRequest("ppl", n, bench_config, family="adversarial",
                                 trials=TRIALS) for n in sizes]
        return dict(zip(sizes, run_batches(requests, workers=workers)))

    parallel_results, parallel_time = _timed(
        lambda: benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
    )

    # The determinism contract: fan-out must not change any trial's outcome.
    for n in sizes:
        serial_steps = [trial.steps for trial in serial_results[n]]
        parallel_steps = [trial.steps for trial in parallel_results[n]]
        assert parallel_steps == serial_steps, f"divergence at n={n}"
        assert [t.converged for t in parallel_results[n]] == [
            t.converged for t in serial_results[n]
        ]

    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    print()
    print(format_table(
        headers=["mode", "workers", "wall time (s)"],
        rows=[("serial", 1, round(serial_time, 3)),
              ("parallel", workers, round(parallel_time, 3))],
        title=(f"P_PL sweep sizes={tuple(sizes)} x {TRIALS} trials: "
               f"speedup {speedup:.2f}x"),
    ))
    # Soft bound: on tiny benchmark rings pool start-up can eat most of the
    # win, but the parallel path must never be catastrophically slower.
    if workers > 1:
        assert parallel_time < serial_time * 2.0


def test_parallel_single_batch_speedup(benchmark, bench_config):
    """One large batch at the biggest ring size — the executor's sweet spot."""
    workers = _workers()
    n = max(bench_config.sizes)
    tasks = trial_tasks("ppl", n, bench_config, "adversarial", trials=TRIALS)

    serial, serial_time = _timed(lambda: run_trials(tasks))
    parallel, parallel_time = _timed(
        lambda: benchmark.pedantic(
            lambda: run_trials(tasks, workers=workers), rounds=1, iterations=1
        )
    )

    assert [t.steps for t in parallel] == [t.steps for t in serial]
    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    print(f"\nn={n}, {TRIALS} trials, {workers} workers: "
          f"serial {serial_time:.3f}s, parallel {parallel_time:.3f}s "
          f"({speedup:.2f}x)")
