"""Experiment reporting.

:meth:`~repro.experiments.scheduler.ReplicationScheduler.run_experiment`
produces an :class:`ExperimentResult`; :func:`format_experiment_report`
renders it as the table + ASCII chart + shape check outcomes (the benches
print this), and :func:`export_csv` writes the mean curves for external
plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Union

from ..analysis.report import ascii_chart, format_table
from ..analysis.timeseries import time_grid
from .spec import ExperimentResult


def format_experiment_report(
    result: ExperimentResult,
    chart: bool = True,
    chart_width: int = 72,
    chart_height: int = 18,
) -> str:
    """Render an experiment as a paper-figure-style text report."""
    spec = result.spec
    lines: List[str] = [
        f"=== {spec.paper_ref}: {spec.title} ===",
        spec.description,
        "",
    ]

    headers = ["series", "final (mean±CI)", "penetration"]
    headers.extend(f"t={c:g}h" for c in spec.checkpoints)
    rows = []
    for series in spec.series:
        replication_set = result.series_results[series.label]
        summary = replication_set.final_summary()
        susceptible = replication_set.susceptible_count
        row: List[object] = [
            series.label,
            f"{summary.mean:.1f} ± {summary.ci_half_width:.1f}",
            f"{summary.mean / susceptible:.1%}",
        ]
        row.extend(
            f"{replication_set.mean_infected_at(c):.1f}" for c in spec.checkpoints
        )
        rows.append(row)
    lines.append(format_table(headers, rows))
    lines.append("")

    if chart:
        curves = result.mean_curves()
        # Chart at most 8 series (glyph limit); keep declaration order.
        plotted = dict(list(curves.items())[:8])
        lines.append(
            ascii_chart(
                plotted,
                width=chart_width,
                height=chart_height,
                title=f"{spec.paper_ref} (mean of {result.replications} replications)",
                end_time=spec.horizon,
            )
        )
        lines.append("")

    lines.append("shape checks:")
    for check in result.run_checks():
        lines.append("  " + check.format())
    return "\n".join(lines)


def export_csv(
    result: ExperimentResult,
    path: Union[str, Path],
    grid_points: int = 200,
) -> Path:
    """Write the experiment's mean curves to a CSV file.

    Columns: ``hours`` then one column per series (mean infection count).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    grid = time_grid(result.spec.horizon, grid_points)
    columns = {
        label: replication_set.mean_curve(grid_points).resample(grid)
        for label, replication_set in result.series_results.items()
    }
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hours"] + list(columns))
        for i, hour in enumerate(grid):
            writer.writerow(
                [f"{hour:.4f}"] + [f"{columns[label][i]:.4f}" for label in columns]
            )
    return path


__all__ = [
    "format_experiment_report",
    "export_csv",
]
