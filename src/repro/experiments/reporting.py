"""Plain-text report formatting shared by every experiment harness.

Experiments return structured rows; this module turns them into the aligned
text tables that the benchmarks and the CLI print.  No plotting
library is used (the environment is offline); "figures" are reproduced as
numeric series plus ASCII renderings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, is_dataclass
from typing import Iterable, List, Sequence


def jsonable(value: object) -> object:
    """Recursively convert a payload to strict JSON (no Infinity/NaN).

    Dataclasses flatten to dicts, tuples to lists, and non-finite floats to
    ``null`` — the sanitisation every machine-consumable surface (the CLI's
    ``--format json``, the experiment service's HTTP responses) applies so
    its output always parses under strict JSON rules.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a list of rows as an aligned monospace table."""
    rendered_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, points: Sequence[tuple]) -> str:
    """Render an ``(x, y)`` series as one aligned block (stand-in for a figure)."""
    lines = [name]
    for x, y in points:
        lines.append(f"  {x!s:>10}  {_cell(y)}")
    return "\n".join(lines)


def ascii_bar_chart(points: Sequence[tuple], width: int = 50, label: str = "") -> str:
    """Simple horizontal bar chart of an ``(x, value)`` series.

    Non-finite values (e.g. the ``inf`` mean of a sweep point where no
    trial converged) get a textual marker instead of a bar — scaling by an
    infinite maximum would turn every other row into NaN.
    """
    if not points:
        return label
    finite = [float(value) for _, value in points if math.isfinite(float(value))]
    maximum = (max(finite) if finite else 0.0) or 1.0
    lines = [label] if label else []
    for x, value in points:
        if not math.isfinite(float(value)):
            lines.append(f"  {x!s:>10} | (no converged trials)")
            continue
        bar = "#" * max(1, int(round(width * float(value) / maximum)))
        lines.append(f"  {x!s:>10} | {bar} {_cell(value)}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
