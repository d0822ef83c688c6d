"""Diminishing-returns analysis of a strength sweep (paper §5.3).

The paper argues its results are "useful for locating the point of
diminishing returns for each individual response mechanism, the point
where implementing a faster or more accurate response mechanism does not
much improve the success rate."  Each sweep is a library design (its
axis in :data:`repro.design.library.SWEEP_AXES`): the baseline series
first, then one series per strength.  This module analyses the
collected :class:`~repro.experiments.spec.ExperimentResult`:

* :func:`sweep_finals` reads the final infection level per strength;
* :func:`knee_point` locates the diminishing-returns knee on the
  resulting benefit curve (maximum-distance-to-chord method);
* :func:`format_sweep` renders the table and the knee verdict.

``axis`` arguments are duck-typed (``label``, ``larger_is_stronger``,
``strengths``), since this package never depends on the design layer.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import format_table
from .spec import ExperimentResult


def knee_point(xs: Sequence[float], ys: Sequence[float]) -> Optional[int]:
    """Index of the knee of an increasing benefit curve.

    Maximum perpendicular distance from the chord joining the first and
    last points — the standard discrete "kneedle" criterion.  Returns
    ``None`` when the curve is flat (no meaningful knee).
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 3:
        return None
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x_span = x[-1] - x[0]
    y_span = y[-1] - y[0]
    if abs(y_span) < 1e-9 or abs(x_span) < 1e-12:
        return None
    # Normalise both axes, then distance to the y=x chord.
    xn = (x - x[0]) / x_span
    yn = (y - y[0]) / y_span
    distances = yn - xn
    index = int(np.argmax(distances))
    if distances[index] <= 0.01:
        return None  # essentially linear: no knee
    return index


def sweep_finals(result: ExperimentResult) -> Tuple[float, List[float]]:
    """Mean final infections: the baseline, then one per strength."""
    finals = [rs.final_summary().mean for rs in result.series_results.values()]
    return finals[0], finals[1:]


def sweep_knee(axis: Any, result: ExperimentResult) -> Optional[float]:
    """Strength at the diminishing-returns knee (``None`` if flat)."""
    baseline, finals = sweep_finals(result)
    xs = list(axis.strengths)
    # Infections prevented relative to the baseline, per strength.
    ys = [max(0.0, baseline - final) for final in finals]
    if not axis.larger_is_stronger:
        # Re-orient so benefit is non-decreasing left to right.
        xs.reverse()
        ys.reverse()
    index = knee_point(xs, ys)
    return None if index is None else xs[index]


def format_sweep(axis: Any, result: ExperimentResult) -> str:
    """Render the sweep as a table plus the knee verdict."""
    baseline, finals = sweep_finals(result)
    rows = [
        [
            f"{strength:g}",
            f"{final:.1f}",
            f"{final / baseline if baseline > 0 else 1.0:.1%}",
        ]
        for strength, final in zip(axis.strengths, finals)
    ]
    table = format_table(
        [axis.label, "final infected", "vs baseline"],
        rows,
        title=f"sweep {result.spec.experiment_id}: baseline {baseline:.1f}",
    )
    knee = sweep_knee(axis, result)
    verdict = (
        f"diminishing-returns knee at {axis.label} ≈ {knee:g}"
        if knee is not None
        else "no knee found (benefit curve is flat)"
    )
    return f"{table}\n{verdict}"


__all__ = ["knee_point", "sweep_finals", "sweep_knee", "format_sweep"]
