"""Experiment E1 — the main theorem's shape: convergence steps vs ring size.

Theorem 3.1 bounds ``P_PL``'s convergence at ``O(n^2 log n)`` steps; the [28]
baseline sits at ``Theta(n^2)`` and the constant-state protocols at
``Omega(n^3)`` or worse.  This experiment sweeps the ring size, measures the
mean steps-to-safety of ``P_PL`` (and optionally of [28] for the head-to-head
comparison), and fits the measurements against the candidate growth laws so
the report can state which law the data follows — the "shape" reproduction of
the paper's headline claim.

Sweep points where *no* trial converged within the step budget have no mean
(the mean over converged trials is ``inf``); they are excluded from the
growth-law fits and reported in :attr:`ScalingSeries.failed_sizes` instead —
feeding an ``inf`` into the least-squares fit would corrupt every
coefficient silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.convergence import ConvergenceResult
from repro.analysis.stats import ScalingFit, best_growth_law
from repro.api.config import ExperimentConfig
from repro.api.executor import BatchRequest, run_batches
from repro.api.registry import collect_convergence
from repro.experiments.reporting import ascii_bar_chart, format_table

#: A protocol runner: (n, config) -> ConvergenceResult (see
#: :func:`repro.api.registry.runner_for`).
ProtocolRunner = Callable[[int, ExperimentConfig], ConvergenceResult]


@dataclass
class ScalingSeries:
    """Mean convergence steps across a size sweep plus its growth-law fits.

    ``failed_sizes`` lists the sweep points where no trial converged within
    the budget: their means are non-finite, they contribute nothing to
    ``fits`` (which may be empty when fewer than two points remain), and
    reports flag them instead of charting them.
    """

    protocol: str
    sizes: List[int]
    mean_steps: List[float]
    fits: List[ScalingFit]
    failed_sizes: List[int] = field(default_factory=list)

    def best_fit(self) -> Optional[ScalingFit]:
        """The growth law with the smallest relative error (``None`` when
        too few points converged for any fit)."""
        return self.fits[0] if self.fits else None


def fit_converged_points(sizes: Sequence[int], means: Sequence[float],
                         ) -> Tuple[List[ScalingFit], List[int]]:
    """Growth-law fits over the converged points only, plus the failed sizes.

    A point whose mean is non-finite (no trial converged: ``inf``; or an
    empty summary: ``nan``) is excluded from the least-squares fit — it has
    no defined relative error and would silently corrupt the coefficients —
    and returned in the second element so callers can flag it.  Fewer than
    two finite points fit nothing (empty list).
    """
    converged = [(n, mean) for n, mean in zip(sizes, means)
                 if math.isfinite(mean)]
    failed = [n for n, mean in zip(sizes, means) if not math.isfinite(mean)]
    if len(converged) < 2:
        return [], failed
    return (best_growth_law([n for n, _ in converged],
                            [mean for _, mean in converged]),
            failed)


def measure_scaling(runner: ProtocolRunner, label: str,
                    config: ExperimentConfig,
                    sizes: Optional[Sequence[int]] = None) -> ScalingSeries:
    """Sweep one protocol and fit its mean steps against the growth laws.

    The runner-callable path: each point runs (and, with a parallel runner,
    pools) on its own.  Sweeps over registered specs should prefer
    :func:`scaling_series`, which drains every point's trials from one
    shared process pool.
    """
    # One runner call per size, keyed (and so deduplicated) by n.
    results = {n: runner(n, config)
               for n in (sizes if sizes is not None else config.sizes)}
    swept_sizes = sorted(results)
    means = [results[n].mean_steps() for n in swept_sizes]
    fits, failed = fit_converged_points(swept_sizes, means)
    return ScalingSeries(protocol=label, sizes=swept_sizes, mean_steps=means,
                         fits=fits, failed_sizes=failed)


#: One sweep entry: (spec name, family or None, rng label or None, display label).
_SweepEntry = Tuple[str, Optional[str], Optional[str], str]


def _sweep_entries(include_baseline: bool,
                   from_leaderless: bool) -> List[_SweepEntry]:
    """The protocols of the Theorem-3.1 sweep, with their stream labels.

    Families and rng labels equal those of the one-runner-per-point path
    (``runner_for("ppl", family="adversarial")``, ``runner_for("ppl",
    family="leaderless-trap", rng_label="ppl-leaderless")`` and
    ``runner_for("yokota2021")``), so the pooled sweep is bit-identical to
    it.
    """
    if from_leaderless:
        entries: List[_SweepEntry] = [
            ("ppl", "leaderless-trap", "ppl-leaderless", "P_PL")]
    else:
        entries = [("ppl", "adversarial", None, "P_PL")]
    if include_baseline:
        entries.append(("yokota2021", None, None, "Yokota2021"))
    return entries


def scaling_series(config: Optional[ExperimentConfig] = None,
                   include_baseline: bool = True,
                   from_leaderless: bool = False,
                   workers: Optional[int] = None,
                   sizes: Optional[Sequence[int]] = None,
                   store=None, on_point_done=None) -> List[ScalingSeries]:
    """Measure the whole sweep on one shared process pool and fit every series.

    Every ``(protocol, n)`` point of the sweep contributes its trials to one
    flat task list executed by a single pool (``workers`` processes; ``None``
    or 1 = serial), so the pool never idles between points.  Results are
    bit-identical to the serial :func:`measure_scaling` path.

    ``store`` (a :class:`repro.store.ResultsStore`) serves already-computed
    points from disk and persists each point as it completes: a repeated
    sweep recomputes nothing, an extended sweep (more trials or more sizes)
    runs only the difference, and an interrupted sweep resumes
    point-by-point.

    ``on_point_done`` (an :data:`repro.api.executor.OnPointDone`) fires as
    each ``(protocol, n)`` point completes — the CLI's ``--progress``
    reporting and the experiment service's live status both hang off it.
    """
    config = config or ExperimentConfig()
    # Dedupe like the legacy sweep (SweepResult keys results by n), so a
    # repeated size neither double-runs trials nor double-weights the fit.
    swept_sizes = sorted(set(sizes if sizes is not None else config.sizes))
    entries = _sweep_entries(include_baseline, from_leaderless)
    requests = [
        BatchRequest(spec_name=spec_name, population_size=n, config=config,
                     family=family, rng_label=rng_label)
        for spec_name, family, rng_label, _ in entries
        for n in swept_sizes
    ]
    outcomes = run_batches(requests, workers=workers, store=store,
                           on_point_done=on_point_done)
    series: List[ScalingSeries] = []
    for position, (_, _, _, label) in enumerate(entries):
        means = []
        for offset, n in enumerate(swept_sizes):
            batch = outcomes[position * len(swept_sizes) + offset]
            means.append(collect_convergence(label, n, batch).mean_steps())
        fits, failed = fit_converged_points(swept_sizes, means)
        series.append(ScalingSeries(protocol=label, sizes=list(swept_sizes),
                                    mean_steps=means, fits=fits,
                                    failed_sizes=failed))
    return series


def render_series(entry: ScalingSeries) -> List[str]:
    """The text sections for one series: chart, failure flags, fit table."""
    sections = [ascii_bar_chart(list(zip(entry.sizes, entry.mean_steps)),
                                label=f"{entry.protocol}: mean steps to safety")]
    if entry.failed_sizes:
        sections.append(
            f"{entry.protocol}: no trial converged at n = "
            f"{', '.join(str(n) for n in entry.failed_sizes)} "
            "(excluded from the fits; raise --max-steps)"
        )
    if entry.fits:
        sections.append(format_table(
            headers=["growth law", "coefficient", "relative error"],
            rows=[(fit.law, fit.coefficient, fit.relative_error)
                  for fit in entry.fits],
            title=f"{entry.protocol}: growth-law fits (best first)",
        ))
    else:
        sections.append(
            f"{entry.protocol}: no growth-law fits — fewer than two sweep "
            "points converged"
        )
    return sections


def scaling_report(config: Optional[ExperimentConfig] = None,
                   include_baseline: bool = True,
                   from_leaderless: bool = False,
                   workers: Optional[int] = None,
                   store=None) -> str:
    """Text report: the measured series, the bar chart, and the fitted laws."""
    config = config or ExperimentConfig()
    series = scaling_series(config, include_baseline=include_baseline,
                            from_leaderless=from_leaderless, workers=workers,
                            store=store)

    sections: List[str] = []
    for entry in series:
        sections.extend(render_series(entry))
    return "\n\n".join(sections)


def scaling_summary(config: Optional[ExperimentConfig] = None,
                    ) -> Dict[str, Optional[str]]:
    """Machine-readable summary: protocol -> best-fitting growth law
    (``None`` when too few points converged to fit one)."""
    from repro.api.registry import runner_for

    config = config or ExperimentConfig()
    summary: Dict[str, Optional[str]] = {}
    for runner, label in ((runner_for("ppl", family="adversarial"), "P_PL"),
                          (runner_for("yokota2021"), "Yokota2021")):
        series = measure_scaling(runner, label, config)
        best = series.best_fit()
        summary[label] = best.law if best else None
    return summary
