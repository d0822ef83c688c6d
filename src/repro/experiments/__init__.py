"""Per-figure experiment harness.

An :class:`ExperimentSpec` per paper table/figure (the paper's specs
are compiled from the designs in :mod:`repro.design.library`, the one
registry), the one planner :func:`plan_experiment`, the scheduler that
runs planned jobs, and a runner that renders paper-style reports.

Dependencies go one way: :mod:`repro.design` builds on this package,
and nothing here depends on the design layer.
"""

from .runner import (
    export_csv,
    format_experiment_report,
    run_experiment,
)
from .scheduler import (
    JobSecondsEstimator,
    ReplicationScheduler,
    SchedulerStats,
    reassemble,
)
from .spec import (
    CheckResult,
    ExperimentPlan,
    ExperimentResult,
    ExperimentSpec,
    ReplicationJob,
    SeriesSpec,
    ShapeCheck,
    plan_experiment,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentPlan",
    "SeriesSpec",
    "CheckResult",
    "ShapeCheck",
    "plan_experiment",
    "run_experiment",
    "format_experiment_report",
    "export_csv",
    "JobSecondsEstimator",
    "ReplicationJob",
    "ReplicationScheduler",
    "SchedulerStats",
    "reassemble",
]
