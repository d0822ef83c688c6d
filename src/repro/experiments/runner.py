"""Experiment execution and reporting.

:func:`run_experiment` simulates every series of a spec with common
seeding and returns an :class:`ExperimentResult`;
:func:`format_experiment_report` renders the table + ASCII chart + shape
check outcomes (the benches print this), and :func:`export_csv` writes the
mean curves for external plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Union

from ..analysis.report import ascii_chart, format_table
from ..analysis.timeseries import time_grid
from ..core.cache import ResultCache
from ..resilience.policy import RetryPolicy
from .scheduler import ReplicationScheduler
from .spec import ExperimentResult, ExperimentSpec


def run_experiment(
    spec: ExperimentSpec,
    replications: Optional[int] = None,
    seed: int = 0,
    processes: int = 1,
    cache: Optional[ResultCache] = None,
    resilience: Optional[RetryPolicy] = None,
    auto_degrade: bool = True,
) -> ExperimentResult:
    """Run every series of ``spec`` with ``replications`` replications.

    All series share the master seed (unless a design's ``seed`` factor
    pins one); each series' replications derive their streams
    independently, so series are statistically independent but the
    whole experiment is reproducible from one seed.  The job list comes
    from :func:`~repro.experiments.spec.plan_experiment` (identical
    configurations are simulated once) and runs through one
    :class:`~repro.experiments.scheduler.ReplicationScheduler`:
    ``processes=1`` is the inline serial path (bit-identical regardless of
    worker count), ``cache`` skips already-computed replications,
    ``resilience`` runs pending jobs under the supervised pool (retries,
    timeouts, quarantine — see :mod:`repro.resilience`), and
    ``auto_degrade`` lets the scheduler run a batch inline when its cost
    model projects the pool would lose to serial.
    """
    with ReplicationScheduler(
        processes=processes,
        cache=cache,
        resilience=resilience,
        auto_degrade=auto_degrade,
    ) as scheduler:
        return scheduler.run_experiment(spec, replications=replications, seed=seed)


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
    "run_experiment",
    "format_experiment_report",
    "export_csv",
]
