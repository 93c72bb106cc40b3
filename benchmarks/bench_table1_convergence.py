"""Benchmark T1a — Table 1, convergence-time column.

One benchmark per Table-1 row (the executable ones): mean steps to a safe
configuration from adversarial starts at the reference ring size.  The
wall-clock time pytest-benchmark reports is the cost of the measurement; the
quantity that reproduces the paper is the printed/asserted step count
relationship (all protocols converge; the [28] baseline is the fastest in
steps, ``P_PL`` pays at most a logarithmic factor over it).
"""

from __future__ import annotations

from repro.api import ExperimentConfig, run_spec
from repro.experiments.table1 import build_table1, render_table1


def test_table1_row_ppl(benchmark, bench_config, reference_size):
    result = benchmark.pedantic(
        lambda: run_spec("ppl", reference_size, bench_config, family="adversarial"),
        rounds=1, iterations=1,
    )
    assert result.all_converged
    assert result.mean_steps() > 0


def test_table1_row_yokota(benchmark, bench_config, reference_size):
    result = benchmark.pedantic(
        lambda: run_spec("yokota2021", reference_size, bench_config),
        rounds=1, iterations=1,
    )
    assert result.all_converged


def test_table1_row_fischer_jiang(benchmark, bench_config, reference_size):
    result = benchmark.pedantic(
        lambda: run_spec("fischer-jiang", reference_size, bench_config),
        rounds=1, iterations=1,
    )
    assert result.all_converged


def test_table1_row_angluin(benchmark, bench_config, reference_size):
    size = reference_size if reference_size % 2 else reference_size + 1
    result = benchmark.pedantic(
        lambda: run_spec("angluin-modk", size, bench_config), rounds=1, iterations=1
    )
    assert result.all_converged


def test_table1_full_table(benchmark, bench_config, reference_size):
    """Assemble and print the whole Table-1 reproduction."""
    small = ExperimentConfig(
        sizes=(reference_size,),
        trials=bench_config.trials,
        max_steps=bench_config.max_steps,
        kappa_factor=bench_config.kappa_factor,
        seed=bench_config.seed,
    )
    rows = benchmark.pedantic(lambda: build_table1(small), rounds=1, iterations=1)
    print()
    print(render_table1(rows))
    assert len(rows) == 5
    measured = [row for row in rows if row.measured_mean_steps is not None]
    assert len(measured) == 4
    # The near time-optimal claim, in shape form: P_PL pays at most a modest
    # multiplicative factor over the Theta(n^2) baseline of [28].
    ppl = next(row for row in rows if row.protocol.startswith("this work"))
    yokota = next(row for row in rows if row.protocol.startswith("[28]"))
    assert ppl.measured_mean_steps <= 50 * yokota.measured_mean_steps
