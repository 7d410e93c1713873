"""Plain-text table and series rendering for the benchmark harness.

The paper's "figures" are curves of rate versus scale; with no plotting
dependency available we render aligned tables and simple log-scale ASCII
sparklines that make growth shapes (linear / quadratic / cubic) visible in
benchmark output.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Sequence

#: bar columns of :func:`format_series`
_SERIES_WIDTH = 40


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned ASCII table.

    Example::

        print(format_table(["nodes", "rate"], [(1, 0.1), (10, 100.0)]))
    """
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_mean_ci(mean: float, half_width: float) -> str:
    """Render ``mean ± half-width`` with the table's number formatting.

    A zero half-width (single sample) renders as the bare mean.
    """
    if half_width:
        return f"{_fmt(mean)} ± {_fmt(half_width)}"
    return _fmt(mean)


def format_series(
    xs: Sequence[float],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render a horizontal-bar sparkline of ``ys`` against ``xs``.

    Bar length (out of ``_SERIES_WIDTH`` columns) is proportional to
    ``log10(y)``, so polynomial growth appears as evenly stepped bars
    whose step size reveals the exponent.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    positive = [y for y in ys if y > 0]
    lines = [f"{y_label} vs {x_label}"]
    if not positive:
        for x, y in zip(xs, ys):
            lines.append(f"{_fmt(x):>10} | {_fmt(y)}")
        return "\n".join(lines)
    lo = math.log10(min(positive))
    hi = math.log10(max(positive))
    span = (hi - lo) or 1.0
    width = _SERIES_WIDTH
    for x, y in zip(xs, ys):
        if y <= 0:
            bar = ""
        else:
            level = (math.log10(y) - lo) / span
            bar = "#" * max(1, int(round(level * width)))
        lines.append(f"{_fmt(x):>10} | {bar:<{width}} {_fmt(y)}")
    return "\n".join(lines)
