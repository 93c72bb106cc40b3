"""Statistics for the experiments: summaries, Chernoff bounds, scaling-law fits.

The paper's claims are asymptotic (``O(n^2 log n)`` steps, ``polylog(n)``
states).  The experiment harness turns measured step counts into

* per-``n`` summaries (mean / median / max over independent trials), and
* least-squares fits of the measured means against candidate growth laws
  (``n^2``, ``n^2 log n``, ``n^3``), so the reports can state which law
  describes the data best — the "shape" reproduction the benchmarks target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.errors import InvalidParameterError


# ---------------------------------------------------------------------- #
# Chernoff bounds (Lemma A.1)
# ---------------------------------------------------------------------- #
def chernoff_upper(expectation: float, delta: float) -> float:
    """``Pr(X >= (1+delta) E[X]) <= exp(-delta^2 E[X] / 3)`` for ``0 <= delta <= 1``."""
    if not 0 <= delta <= 1:
        raise InvalidParameterError(f"delta must be in [0, 1], got {delta}")
    if expectation < 0:
        raise InvalidParameterError(f"expectation must be >= 0, got {expectation}")
    return math.exp(-delta * delta * expectation / 3.0)


def chernoff_lower(expectation: float, delta: float) -> float:
    """``Pr(X <= (1-delta) E[X]) <= exp(-delta^2 E[X] / 2)`` for ``0 < delta < 1``."""
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    if expectation < 0:
        raise InvalidParameterError(f"expectation must be >= 0, got {expectation}")
    return math.exp(-delta * delta * expectation / 2.0)


# ---------------------------------------------------------------------- #
# Sample summaries
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SampleSummary:
    """Mean / median / min / max / count of a sample of measurements."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float

    @classmethod
    def empty(cls) -> "SampleSummary":
        """The degenerate summary of zero measurements (count 0, NaN stats).

        What an all-failed run reports instead of raising: ``count`` says
        how many trials actually converged, the NaN statistics render as
        ``nan`` in text and ``null`` in strict JSON.
        """
        nan = float("nan")
        return cls(count=0, mean=nan, median=nan, minimum=nan, maximum=nan)

    @classmethod
    def of(cls, values: Sequence[float]) -> "SampleSummary":
        if not values:
            raise InvalidParameterError("cannot summarise an empty sample")
        ordered = sorted(float(value) for value in values)
        count = len(ordered)
        middle = count // 2
        if count % 2:
            median = ordered[middle]
        else:
            median = 0.5 * (ordered[middle - 1] + ordered[middle])
        return cls(
            count=count,
            mean=sum(ordered) / count,
            median=median,
            minimum=ordered[0],
            maximum=ordered[-1],
        )


# ---------------------------------------------------------------------- #
# Scaling-law fits
# ---------------------------------------------------------------------- #
#: Candidate growth laws for convergence-time fits: name -> f(n).
GROWTH_LAWS: Dict[str, Callable[[float], float]] = {
    "n": lambda n: n,
    "n log n": lambda n: n * math.log(n),
    "n^2": lambda n: n * n,
    "n^2 log n": lambda n: n * n * math.log(n),
    "n^3": lambda n: n ** 3,
}


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit ``y ~= coefficient * law(n)`` with its relative error."""

    law: str
    coefficient: float
    relative_error: float


def fit_growth_law(sizes: Sequence[int], values: Sequence[float],
                   law: Callable[[float], float]) -> Tuple[float, float]:
    """Best single-coefficient fit of ``values ~ coefficient * law(size)``.

    Returns ``(coefficient, relative_error)`` where the relative error is the
    root-mean-square of ``(prediction - value) / value`` — scale-free so fits
    across different laws are comparable.  Every measurement must be strictly
    positive *and finite*: a zero has no defined relative error, silently
    dropping one would report an error computed over fewer points than the
    caller supplied, and an ``inf`` (the mean of a sweep point where no
    trial converged) slips past a bare positivity check and corrupts the
    least-squares coefficient into ``inf``/``nan`` without a peep.
    """
    if len(sizes) != len(values) or len(sizes) < 2:
        raise InvalidParameterError("need at least two (size, value) pairs of equal length")
    for size, value in zip(sizes, values):
        # `not (value > 0)` rather than `value <= 0`: NaN (e.g. an empty
        # summary's mean) must be rejected too; inf needs its own check.
        if not value > 0 or not math.isfinite(value):
            raise InvalidParameterError(
                f"growth-law fits need strictly positive finite measurements; "
                f"got {value!r} at n={size} (a non-converged sweep point? "
                f"exclude it from the fit)"
            )
    basis = [law(float(size)) for size in sizes]
    numerator = sum(b * v for b, v in zip(basis, values))
    denominator = sum(b * b for b in basis)
    if denominator == 0:
        raise InvalidParameterError("degenerate basis for the growth-law fit")
    coefficient = numerator / denominator
    squared = [((coefficient * b - v) / v) ** 2 for b, v in zip(basis, values)]
    relative_error = math.sqrt(sum(squared) / len(squared))
    return coefficient, relative_error


def best_growth_law(sizes: Sequence[int], values: Sequence[float],
                    laws: "Dict[str, Callable[[float], float]] | None" = None
                    ) -> List[ScalingFit]:
    """Fit every candidate law and return them sorted by relative error (best first)."""
    candidates = laws or GROWTH_LAWS
    fits: List[ScalingFit] = []
    for name, law in candidates.items():
        coefficient, error = fit_growth_law(sizes, values, law)
        fits.append(ScalingFit(law=name, coefficient=coefficient, relative_error=error))
    return sorted(fits, key=lambda fit: fit.relative_error)


def ratio_table(sizes: Sequence[int], values: Sequence[float],
                law: Callable[[float], float]) -> List[Tuple[int, float]]:
    """``value / law(n)`` for each ``n`` — flat ratios mean the law matches."""
    if len(sizes) != len(values):
        raise InvalidParameterError("sizes and values must have equal length")
    return [(size, value / law(float(size))) for size, value in zip(sizes, values)]
