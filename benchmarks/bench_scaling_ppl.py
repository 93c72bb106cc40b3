"""Benchmark E1 — Theorem 3.1: convergence steps versus ring size.

Sweeps the ring size, measures ``P_PL``'s mean steps-to-safety from uniform
adversarial starts and from the leaderless trap, fits the means against the
candidate growth laws, and prints the fits.  The reproduced "shape": the
measured growth is compatible with ``n^2``-to-``n^2 log n`` (and clearly
below ``n^3``), and the head-to-head against the [28] baseline costs at most
a modest (logarithmic-like) factor.
"""

from __future__ import annotations

from repro.analysis.stats import fit_growth_law, GROWTH_LAWS
from repro.api import runner_for
from repro.experiments.reporting import ascii_bar_chart, format_table
from repro.experiments.scaling import measure_scaling

#: The sweep's runners: the same families and stream labels as the
#: Theorem 3.1 sweep (``repro.experiments.scaling``).
run_ppl = runner_for("ppl", family="adversarial")
run_ppl_leaderless = runner_for("ppl", family="leaderless-trap",
                                rng_label="ppl-leaderless")
run_yokota = runner_for("yokota2021")


def _print_series(series) -> None:
    print()
    print(ascii_bar_chart(list(zip(series.sizes, series.mean_steps)),
                          label=f"{series.protocol}: mean steps to safety"))
    print(format_table(
        headers=["growth law", "coefficient", "relative error"],
        rows=[(fit.law, fit.coefficient, fit.relative_error) for fit in series.fits],
        title=f"{series.protocol}: growth-law fits (best first)",
    ))


def test_scaling_ppl_adversarial(benchmark, bench_config):
    series = benchmark.pedantic(
        lambda: measure_scaling(run_ppl, "P_PL", bench_config), rounds=1, iterations=1
    )
    _print_series(series)
    # Super-linear growth, but clearly sub-cubic: the n^3 law should not be
    # the best fit, and the measured means must grow faster than linearly.
    assert series.mean_steps[-1] > series.mean_steps[0]
    _, cubic_error = fit_growth_law(series.sizes, series.mean_steps, GROWTH_LAWS["n^3"])
    best = series.best_fit()
    assert best.law != "n^3"
    assert best.relative_error <= cubic_error


def test_scaling_ppl_leaderless(benchmark, bench_config):
    """The leaderless trap exercises the full detection pipeline (the hardest start)."""
    series = benchmark.pedantic(
        lambda: measure_scaling(run_ppl_leaderless, "P_PL (leaderless start)", bench_config),
        rounds=1, iterations=1,
    )
    _print_series(series)
    assert all(steps > 0 for steps in series.mean_steps)
    assert series.mean_steps[-1] > series.mean_steps[0]


def test_scaling_head_to_head_with_yokota(benchmark, bench_config):
    """P_PL vs [28]: the paper predicts a gap of roughly a log factor, not more."""

    def measure_both():
        return (
            measure_scaling(run_ppl, "P_PL", bench_config),
            measure_scaling(run_yokota, "Yokota2021", bench_config),
        )

    ppl, yokota = benchmark.pedantic(measure_both, rounds=1, iterations=1)
    _print_series(ppl)
    _print_series(yokota)
    for n, ppl_steps, yokota_steps in zip(ppl.sizes, ppl.mean_steps, yokota.mean_steps):
        ratio = ppl_steps / yokota_steps
        print(f"n={n}: P_PL / Yokota2021 step ratio = {ratio:.2f}")
        assert ratio < 60
