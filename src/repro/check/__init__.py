"""Static analysis for the reproduction: model checking + determinism lint.

Two pillars, one package:

* :mod:`repro.check.model` / :mod:`repro.check.graph` — exhaustive
  verification of the self-stabilization claims (closure, stabilization
  reachability, livelock freedom) on the explicit configuration graph of
  each registered simulated spec, compiled from the same ``transition``
  the engines execute.  Surface: :func:`verify_spec`,
  :func:`verify_all`, and ``repro-ssle check``.

* :mod:`repro.check.quant` / :mod:`repro.check.probability` /
  :mod:`repro.check.symmetry` — the quantitative layer: the uniform
  scheduler's chain solved for exact expected convergence times
  (absorbing-chain hitting times, Fraction-exact or certified floats),
  quotiented by ring-rotation/torus-translation symmetry, and
  cross-validated against the real executor (``repro-ssle check
  --quant``).  Surface: :func:`quant_spec`, :func:`quant_all`.

* :mod:`repro.check.lint` / :mod:`repro.check.rules` — an AST lint pass
  (``python -m repro.check.lint``) enforcing the determinism invariants
  the engine tiers, store, service, and fabric depend on (rules
  REP001-REP006).
"""

from repro.check.graph import (
    DEFAULT_MAX_CONFIGS,
    ConfigurationGraph,
    GraphAnalysis,
    analyze,
    tarjan_components,
)
from repro.check.model import (
    DEFAULT_MAX_N,
    NOT_CLAIMED,
    SKIPPED,
    SYMMETRY_MODES,
    VERIFIED,
    VIOLATED,
    select_point,
    summarize,
    verify_all,
    verify_spec,
)
from repro.check.probability import (
    HittingTimes,
    hitting_times,
    mean_hitting_time,
    worst_start,
)
from repro.check.quant import (
    quant_all,
    quant_spec,
    summarize_quant,
    z_score,
)
from repro.check.rules import RULES, Finding
from repro.check.symmetry import (
    QuotientGraph,
    RotationSymmetry,
    TranslationSymmetry,
    symmetry_for,
)


def __getattr__(name):
    # The lint driver is imported lazily so `python -m repro.check.lint`
    # does not re-import the module it is about to execute (runpy warns).
    if name in ("lint_file", "lint_paths", "lint_source"):
        from repro.check import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConfigurationGraph",
    "DEFAULT_MAX_CONFIGS",
    "DEFAULT_MAX_N",
    "Finding",
    "GraphAnalysis",
    "HittingTimes",
    "NOT_CLAIMED",
    "QuotientGraph",
    "RULES",
    "RotationSymmetry",
    "SKIPPED",
    "SYMMETRY_MODES",
    "TranslationSymmetry",
    "VERIFIED",
    "VIOLATED",
    "analyze",
    "hitting_times",
    "lint_file",
    "lint_paths",
    "lint_source",
    "mean_hitting_time",
    "quant_all",
    "quant_spec",
    "select_point",
    "summarize",
    "summarize_quant",
    "symmetry_for",
    "tarjan_components",
    "verify_all",
    "verify_spec",
    "worst_start",
    "z_score",
]
