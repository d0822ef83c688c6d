"""Per-figure experiment harness.

An :class:`ExperimentSpec` per paper table/figure (the paper's specs
are compiled from the designs in :mod:`repro.design.library`, the one
registry), the one planner :func:`plan_experiment`, the scheduler that
runs planned jobs (:meth:`ReplicationScheduler.run_experiment` runs a
whole spec), and a runner that renders paper-style reports.

Dependencies go one way: :mod:`repro.design` builds on this package,
and nothing here depends on the design layer.
"""

from .._lazy import lazy_surface

#: Each public name is imported from its submodule on first use (PEP 562):
#: a process that runs jobs imports ``experiments.scheduler`` and never
#: the report runner (``runner``, ``analysis.report``, ``csv``).
__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    globals(),
    {
        ".spec": (
            "ExperimentSpec",
            "ExperimentResult",
            "ExperimentPlan",
            "SeriesSpec",
            "CheckResult",
            "ShapeCheck",
            "plan_experiment",
            "ReplicationJob",
        ),
        ".runner": ("format_experiment_report", "export_csv"),
        ".scheduler": (
            "JobSecondsEstimator",
            "ReplicationScheduler",
            "SchedulerStats",
            "reassemble",
        ),
    },
)
