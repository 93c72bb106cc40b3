"""Experiment harnesses: one module per table / figure / quantitative claim of the paper.

See DESIGN.md §3 for the experiment index (T1, F1, F2, E1-E7) and the
mapping from each experiment to its benchmark target.
"""

from repro.experiments.detection import DetectionRow, detection_report, measure_detection
from repro.experiments.elimination import (
    EliminationRow,
    elimination_report,
    measure_elimination,
)
from repro.experiments.figures import (
    Figure1Result,
    Figure2Result,
    figure1_report,
    figure2_report,
    regenerate_figure1,
    regenerate_figure2,
)
from repro.api.config import ExperimentConfig
from repro.experiments.orientation import (
    OrientationRow,
    measure_coloring,
    measure_orientation,
    orientation_fits,
    orientation_report,
)
from repro.experiments.reporting import ascii_bar_chart, format_series, format_table
from repro.experiments.scaling import (
    ScalingSeries,
    measure_scaling,
    scaling_report,
    scaling_summary,
)
from repro.experiments.table1 import Table1Row, build_table1, render_table1, run_and_render

__all__ = [
    "DetectionRow",
    "EliminationRow",
    "ExperimentConfig",
    "Figure1Result",
    "Figure2Result",
    "OrientationRow",
    "ScalingSeries",
    "Table1Row",
    "ascii_bar_chart",
    "build_table1",
    "detection_report",
    "elimination_report",
    "figure1_report",
    "figure2_report",
    "format_series",
    "format_table",
    "measure_coloring",
    "measure_detection",
    "measure_elimination",
    "measure_orientation",
    "measure_scaling",
    "orientation_fits",
    "orientation_report",
    "regenerate_figure1",
    "regenerate_figure2",
    "render_table1",
    "run_and_render",
    "scaling_report",
    "scaling_summary",
]
