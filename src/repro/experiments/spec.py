"""Experiment specifications: a paper artifact as runnable data.

An :class:`ExperimentSpec` names a paper table/figure, the series
(scenarios) that regenerate it, and a list of *shape checks* — the
qualitative claims the paper makes about that artifact, encoded as
predicates over the simulated results.  The benchmark harness runs the
spec and prints the same rows/series the paper plots plus the check
outcomes, and EXPERIMENTS.md records paper-vs-measured.

:func:`plan_experiment` is the one planner: it turns ``(spec,
replications, seed)`` into an :class:`ExperimentPlan` — the
cache-deduplicated :class:`ReplicationJob` list every run path (``figure``,
``design run``, :func:`~repro.experiments.runner.run_experiment`, the
campaign daemon) schedules, plus the per-series slots that fan results
back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.timeseries import StepCurve
from ..core.cache import result_key
from ..core.parameters import ENGINES, ScenarioConfig
from ..core.simulation import ReplicationSet, ScenarioResult


@dataclass(frozen=True)
class SeriesSpec:
    """One plotted series: a label and the scenario that produces it."""

    label: str
    scenario: ScenarioConfig

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("series label must be non-empty")


@dataclass
class CheckResult:
    """Outcome of one shape check."""

    name: str
    passed: bool
    detail: str

    def format(self) -> str:
        """Render as a single report line."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


#: A shape check: maps {series label -> ReplicationSet} to check results.
ShapeCheck = Callable[[Dict[str, ReplicationSet]], CheckResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """A paper artifact (figure/table) as a runnable experiment."""

    #: Stable identifier, e.g. ``"fig2"``.
    experiment_id: str
    #: Human title, e.g. ``"Virus Scan: Varying the Activation Time Delay"``.
    title: str
    #: Which paper artifact this regenerates, e.g. ``"Figure 2"``.
    paper_ref: str
    #: What the paper reports and what to look for.
    description: str
    #: The plotted series.
    series: Tuple[SeriesSpec, ...]
    #: Default replication count for this experiment.
    default_replications: int = 3
    #: Times (hours) at which the report tabulates each curve.
    checkpoints: Tuple[float, ...] = ()
    #: Qualitative claims to verify against the simulated results.
    shape_checks: Tuple[ShapeCheck, ...] = ()
    #: Simulation engine every series runs on (``"core"`` or ``"xl"``).
    #: Stamped onto each scenario at job-build time, so the same spec can
    #: regenerate an artifact on either engine without redefining series.
    engine: str = "core"
    #: The declarative :class:`~repro.design.compile.ExperimentDesign`
    #: this spec was compiled from, when it came through ``repro.design``
    #: (``None`` for ad-hoc specs).  Duck-typed, since this package never
    #: depends on the design layer: :func:`plan_experiment` reads its
    #: ``points()`` (one per series) for ``seed``/``engine`` factors and
    #: its ``grid_section()`` for the run manifest's ``design`` record.
    design: Optional[Any] = None

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError(f"experiment {self.experiment_id!r} has no series")
        labels = [s.label for s in self.series]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate series labels in {self.experiment_id!r}: {labels}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"experiment {self.experiment_id!r}: engine must be one of "
                f"{sorted(ENGINES)}, got {self.engine!r}"
            )

    @property
    def horizon(self) -> float:
        """Longest series duration (chart x-extent)."""
        return max(s.scenario.duration for s in self.series)

    def scenario_for(self, series: SeriesSpec) -> ScenarioConfig:
        """The series scenario stamped with this experiment's engine."""
        if series.scenario.engine == self.engine:
            return series.scenario
        return series.scenario.with_engine(self.engine)


@dataclass
class ExperimentResult:
    """Executed experiment: the spec plus per-series replication sets."""

    spec: ExperimentSpec
    series_results: Dict[str, ReplicationSet]
    seed: int
    replications: int

    def mean_curves(self, grid_points: int = 200) -> Dict[str, StepCurve]:
        """Mean infection curve per series."""
        return {
            label: result.mean_curve(grid_points)
            for label, result in self.series_results.items()
        }

    def run_checks(self) -> List[CheckResult]:
        """Evaluate every shape check against the results."""
        return [check(self.series_results) for check in self.spec.shape_checks]

    def all_checks_pass(self) -> bool:
        """True when every shape check passes."""
        return all(check.passed for check in self.run_checks())


@dataclass(frozen=True)
class ReplicationJob:
    """One schedulable replication."""

    config: ScenarioConfig
    seed: int
    replication: int


@dataclass
class ExperimentPlan:
    """A spec flattened to a deduplicated scheduler job list.

    ``jobs`` holds each distinct ``(scenario, seed, replication)`` once,
    in first-request order; ``slots`` maps every series label to the job
    indexes that serve its replications, so identical configurations are
    simulated once and fan back out at collection.  ``dedup_ratio`` is
    ``unique / requested`` (1.0 = nothing collapsed).
    """

    spec: ExperimentSpec
    replications: int
    seed: int
    jobs: List[ReplicationJob] = field(default_factory=list)
    slots: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def requested_jobs(self) -> int:
        return sum(len(indexes) for indexes in self.slots.values())

    @property
    def unique_jobs(self) -> int:
        return len(self.jobs)

    @property
    def dedup_ratio(self) -> float:
        requested = self.requested_jobs
        return round(self.unique_jobs / requested, 4) if requested else 1.0

    def job_keys(self) -> List[str]:
        """The result-cache key of each scheduled job, in job order.

        These keys are the currency shared with the checkpoint layer and
        the campaign daemon: :class:`~repro.resilience.CampaignCheckpoint`
        records them, and :mod:`repro.service` routes each job to the
        shard owning that slice of the key space.
        """
        return [
            result_key(job.config, job.seed, job.replication)
            for job in self.jobs
        ]

    def collect(
        self, results: Sequence[Optional[ScenarioResult]]
    ) -> ExperimentResult:
        """Fan job-ordered results back out into per-series sets.

        Quarantined replications (resilience mode) leave ``None`` slots;
        a series continues with its survivors.
        """
        series_results: Dict[str, ReplicationSet] = {}
        for series in self.spec.series:
            indexes = self.slots[series.label]
            survivors = [
                results[index] for index in indexes if results[index] is not None
            ]
            if not survivors:
                raise RuntimeError(
                    f"every replication of series {series.label!r} "
                    f"({self.spec.experiment_id}) failed and was quarantined; "
                    "no statistics can be reported"
                )
            series_results[series.label] = ReplicationSet(
                config=self.jobs[indexes[0]].config, results=survivors
            )
        return ExperimentResult(
            spec=self.spec,
            series_results=series_results,
            seed=self.seed,
            replications=self.replications,
        )

    def manifest_section(self) -> Optional[Dict[str, Any]]:
        """The run manifest's ``design`` record (``None`` for ad-hoc specs)."""
        if self.spec.design is None:
            return None
        section = self.spec.design.grid_section()
        section.update(
            {
                "seed": self.seed,
                "replications": self.replications,
                "requested_jobs": self.requested_jobs,
                "unique_jobs": self.unique_jobs,
                "dedup_ratio": self.dedup_ratio,
            }
        )
        return section


def plan_experiment(
    spec: ExperimentSpec,
    replications: Optional[int] = None,
    seed: int = 0,
) -> ExperimentPlan:
    """Deterministically plan one spec as a deduplicated job list.

    Every series runs ``replications`` (default: the spec's) replications
    under the master ``seed``, except that a design point carrying a
    ``seed`` factor pins its series to that seed, and an ``engine``
    factor owns each series' engine (otherwise the spec-level engine is
    stamped, see :meth:`ExperimentSpec.scenario_for`).  Job identity is
    the result cache key, so dedup can never collapse two configurations
    the cache would store separately.
    """
    reps = replications if replications is not None else spec.default_replications
    if reps < 1:
        raise ValueError(f"replications must be >= 1, got {reps}")
    plan = ExperimentPlan(spec=spec, replications=reps, seed=seed)
    design = spec.design
    points = design.points() if design is not None else ({},) * len(spec.series)
    engine_is_factor = design is not None and "engine" in design.design.factor_names
    by_key: Dict[str, int] = {}
    for series, point in zip(spec.series, points):
        series_seed = int(point["seed"].value) if "seed" in point else seed
        scenario = series.scenario if engine_is_factor else spec.scenario_for(series)
        indexes: List[int] = []
        for index in range(reps):
            key = result_key(scenario, series_seed, index)
            slot = by_key.get(key)
            if slot is None:
                slot = by_key[key] = len(plan.jobs)
                plan.jobs.append(
                    ReplicationJob(config=scenario, seed=series_seed, replication=index)
                )
            indexes.append(slot)
        plan.slots[series.label] = indexes
    return plan


__all__ = [
    "SeriesSpec",
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentPlan",
    "ReplicationJob",
    "CheckResult",
    "ShapeCheck",
    "plan_experiment",
]
