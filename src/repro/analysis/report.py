"""Plain-text reporting: tables and ASCII line charts.

The benchmark harness regenerates each paper figure as data series; these
helpers render them in the terminal so a run of the benches visually
reproduces the figures without a plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .timeseries import StepCurve

#: Distinct plot glyphs assigned to series in order.
_SERIES_GLYPHS = "o*x+#%@&"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    if not headers:
        raise ValueError("table needs at least one column")
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def ascii_chart(
    series: Dict[str, StepCurve],
    width: int = 72,
    height: int = 20,
    title: str = "",
    x_label: str = "hours",
    y_label: str = "infection count",
    end_time: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """Render step curves as an ASCII line chart (one glyph per series)."""
    if not series:
        raise ValueError("ascii_chart needs at least one series")
    if width < 20 or height < 5:
        raise ValueError("chart must be at least 20x5 characters")
    if len(series) > len(_SERIES_GLYPHS):
        raise ValueError(f"at most {len(_SERIES_GLYPHS)} series supported")

    curves = list(series.items())
    t_end = end_time if end_time is not None else max(c.end_time for _, c in curves)
    if t_end <= 0:
        t_end = 1.0
    top = y_max if y_max is not None else max(c.max_value for _, c in curves)
    if top <= 0:
        top = 1.0

    grid_times = np.linspace(0.0, t_end, width)
    canvas = [[" "] * width for _ in range(height)]
    for (name, curve), glyph in zip(curves, _SERIES_GLYPHS):
        values = curve.resample(grid_times)
        for x, value in enumerate(values):
            level = min(height - 1, int(round((value / top) * (height - 1))))
            y = height - 1 - level
            canvas[y][x] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max(len(f"{top:.0f}"), len("0")) + 1
    for y, row in enumerate(canvas):
        if y == 0:
            label = f"{top:.0f}".rjust(label_width)
        elif y == height - 1:
            label = "0".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    axis = f"0{' ' * (width - len(f'{t_end:.0f}') - 1)}{t_end:.0f}"
    lines.append(" " * (label_width + 2) + axis + f"  ({x_label})")
    legend = "   ".join(
        f"{glyph}={name}" for (name, _), glyph in zip(curves, _SERIES_GLYPHS)
    )
    lines.append(f"legend: {legend}   [y: {y_label}]")
    return "\n".join(lines)


__all__ = ["format_table", "ascii_chart"]
