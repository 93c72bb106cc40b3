"""Regressions: all-failed sweep points and import hygiene.

Covers the PR-5 bug cluster: ``inf`` means leaking into growth-law fits,
``ConvergenceResult.summary()`` raising out of report paths, non-finite
values crashing the ASCII chart — and that ``import repro.experiments``
and the scaling entry points stay free of deprecation warnings.
"""

from __future__ import annotations

import math
import subprocess
import sys
import warnings

import pytest

from repro.analysis.convergence import ConvergenceResult
from repro.analysis.stats import SampleSummary, fit_growth_law, GROWTH_LAWS
from repro.api.config import ExperimentConfig
from repro.core.errors import InvalidParameterError
from repro.experiments.reporting import ascii_bar_chart
from repro.experiments.scaling import fit_converged_points, scaling_series


# ---------------------------------------------------------------------- #
# inf/nan means must never reach the least-squares fit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("poison", [float("inf"), float("nan"), 0.0, -5.0])
def test_fit_growth_law_rejects_non_finite_and_non_positive(poison):
    with pytest.raises(InvalidParameterError):
        fit_growth_law([8, 16, 32], [100.0, poison, 900.0], GROWTH_LAWS["n^2"])


def test_fit_converged_points_excludes_failed_sizes():
    fits, failed = fit_converged_points(
        [8, 16, 32, 64], [100.0, float("inf"), 900.0, 4000.0])
    assert failed == [16]
    assert fits and all(math.isfinite(fit.coefficient)
                        and math.isfinite(fit.relative_error) for fit in fits)
    # The fit over the surviving points equals fitting them directly.
    direct, _ = fit_converged_points([8, 32, 64], [100.0, 900.0, 4000.0])
    assert fits == direct


def test_fit_converged_points_needs_two_finite_points():
    fits, failed = fit_converged_points([8, 16], [float("inf"), 100.0])
    assert fits == [] and failed == [8]
    fits, failed = fit_converged_points([8, 16], [float("inf")] * 2)
    assert fits == [] and failed == [8, 16]


def test_scaling_series_flags_failed_points_instead_of_corrupting_fits():
    """An all-failed sweep (tiny step budget) used to feed inf into the
    least-squares fit; now it reports failed sizes and fits nothing."""
    config = ExperimentConfig(sizes=(8, 16), trials=1, max_steps=64)
    series = scaling_series(config, include_baseline=False)
    entry = series[0]
    assert entry.failed_sizes == [8, 16]
    assert entry.fits == [] and entry.best_fit() is None
    assert all(not math.isfinite(mean) for mean in entry.mean_steps)


def test_ascii_bar_chart_handles_non_finite_values():
    chart = ascii_bar_chart([(8, 100.0), (16, float("inf")), (32, 900.0)])
    assert "no converged trials" in chart
    assert "nan" not in chart.lower()
    all_failed = ascii_bar_chart([(8, float("inf")), (16, float("nan"))])
    assert all_failed.count("no converged trials") == 2


# ---------------------------------------------------------------------- #
# summary() on an all-failed run degrades instead of raising
# ---------------------------------------------------------------------- #
def test_convergence_summary_degrades_on_all_failed_run():
    result = ConvergenceResult(protocol_name="P", population_size=8,
                               trials=3, steps=[], failures=3)
    summary = result.summary()
    assert summary.count == 0
    assert math.isnan(summary.mean) and math.isnan(summary.median)
    assert result.mean_steps() == float("inf")
    assert not result.all_converged


def test_sample_summary_empty_and_of_stay_distinct():
    empty = SampleSummary.empty()
    assert empty.count == 0 and math.isnan(empty.maximum)
    # The strict constructor keeps rejecting empty samples: only the
    # ConvergenceResult report path opts into degradation.
    with pytest.raises(InvalidParameterError):
        SampleSummary.of([])


# ---------------------------------------------------------------------- #
# Import hygiene
# ---------------------------------------------------------------------- #
def test_importing_experiments_package_does_not_warn():
    """A subprocess proves a fresh ``import repro.experiments`` (and the
    figures module) stays silent even with DeprecationWarning escalated to
    an error."""
    import os
    from pathlib import Path

    code = ("import repro.experiments, repro.experiments.figures; "
            "print('clean')")
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        capture_output=True, text=True, env=env, cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_non_deprecated_scaling_entry_points_do_not_warn():
    """measure_scaling/scaling_summary are current API: using them must not
    trip a DeprecationWarning."""
    config = ExperimentConfig(sizes=(6, 8), trials=1, max_steps=600_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        summary = __import__("repro.experiments.scaling",
                             fromlist=["scaling_summary"]).scaling_summary(config)
    assert set(summary) == {"P_PL", "Yokota2021"}
    assert all(law is None or isinstance(law, str) for law in summary.values())
