"""Tests for the experiments (Table 1, figures, sweeps, reports)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentConfig,
    build_table1,
    measure_detection,
    measure_elimination,
    measure_orientation,
    measure_scaling,
    regenerate_figure1,
    regenerate_figure2,
    render_table1,
)
from repro.api import run_spec, runner_for
from repro.experiments.reporting import ascii_bar_chart, format_series, format_table

#: A deliberately tiny configuration so the whole experiment stack runs in seconds.
TINY = ExperimentConfig(sizes=(6, 8), trials=1, max_steps=600_000,
                        check_interval=32, kappa_factor=4, seed=99)


# ---------------------------------------------------------------------- #
# Reporting helpers
# ---------------------------------------------------------------------- #
def test_format_table_aligns_columns_and_includes_title():
    text = format_table(["a", "bee"], [(1, 2.5), ("xx", 0.00001)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bee" in lines[1]
    assert len(lines) == 5


def test_format_series_and_bar_chart():
    series = format_series("s", [(1, 2.0), (2, 4.0)])
    assert "s" in series and "4" in series
    chart = ascii_bar_chart([(1, 1.0), (2, 2.0)], width=10, label="chart")
    assert "#" in chart and "chart" in chart
    assert ascii_bar_chart([], label="empty") == "empty"


# ---------------------------------------------------------------------- #
# Runners and sweeps
# ---------------------------------------------------------------------- #
def test_run_ppl_and_yokota_runners_converge():
    ppl = run_spec("ppl", 8, TINY, family="adversarial")
    yokota = run_spec("yokota2021", 8, TINY)
    assert ppl.all_converged and yokota.all_converged
    assert ppl.population_size == yokota.population_size == 8


def test_run_angluin_rejects_divisible_sizes():
    with pytest.raises(ValueError):
        run_spec("angluin-modk", 8, TINY)
    result = run_spec("angluin-modk", 9, TINY)
    assert result.all_converged


def test_measure_scaling_produces_fits():
    series = measure_scaling(runner_for("ppl", family="adversarial"), "P_PL", TINY)
    assert series.sizes == [6, 8]
    assert len(series.fits) >= 4
    assert series.best_fit().relative_error >= 0


def test_scaling_series_shares_one_pool_and_matches_the_legacy_path():
    from repro.experiments.scaling import scaling_series

    legacy = [measure_scaling(runner_for("ppl", family="adversarial"), "P_PL", TINY),
              measure_scaling(runner_for("yokota2021"), "Yokota2021", TINY)]
    for pooled in (scaling_series(TINY),              # serial
                   scaling_series(TINY, workers=2)):  # one shared pool
        assert [series.protocol for series in pooled] == ["P_PL", "Yokota2021"]
        for old, new in zip(legacy, pooled):
            assert old.sizes == new.sizes
            assert old.mean_steps == new.mean_steps
            assert old.best_fit().law == new.best_fit().law


# ---------------------------------------------------------------------- #
# Table 1 and the component experiments
# ---------------------------------------------------------------------- #
def test_build_and_render_table1():
    rows = build_table1(TINY, reference_size=8)
    text = render_table1(rows)
    assert len(rows) == 5
    assert "this work (P_PL)" in text
    assert "polylog(n)" in text
    chen = next(row for row in rows if "Chen-Chen" in row.protocol)
    assert chen.measured_mean_steps is None


def test_table1_on_a_shared_pool_equals_the_serial_table():
    serial = build_table1(TINY, reference_size=8)
    pooled = build_table1(TINY, reference_size=8, workers=2)
    assert [row.measured_mean_steps for row in serial] \
        == [row.measured_mean_steps for row in pooled]


def test_detection_and_elimination_measurements():
    detection = measure_detection(TINY, hot_clocks=True, sizes=[8])
    elimination = measure_elimination(TINY, "all", sizes=[8])
    assert detection[0].all_converged
    assert elimination[0].all_converged
    assert detection[0].mean_steps > 0
    assert elimination[0].mean_steps > 0


def test_orientation_measurement():
    rows = measure_orientation(TINY, sizes=[8])
    assert rows[0].all_converged
    assert rows[0].states == 5 ** 4 * 2


# ---------------------------------------------------------------------- #
# Figures
# ---------------------------------------------------------------------- #
def test_figure1_reaches_a_perfect_embedding():
    result = regenerate_figure1(n=12, kappa_factor=4, max_steps=600_000, seed=1)
    assert result.perfect
    assert len(result.segment_ids) == 3
    assert "border=" in result.rendering


@pytest.mark.parametrize("psi", [3, 4])
def test_figure2_trajectory_matches_definition_3_4(psi):
    result = regenerate_figure2(psi=psi)
    assert result.matches_definition
    assert result.positions[0] == 0
    assert result.positions[-1] == 2 * psi - 1
