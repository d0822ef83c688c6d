"""Scenario execution: single runs and replicated studies.

:func:`run_scenario` executes one :class:`ScenarioConfig` with a seeded
stream factory and packages the outcome as a :class:`ScenarioResult`.
:func:`replicate_scenario` runs several independent replications (each
with its own derived seed and, by default, its own sampled topology) and
returns a :class:`ReplicationSet` with aggregate curves and statistics —
the unit the figure experiments are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.stats import SampleSummary, summarize
from ..analysis.timeseries import CurveBand, StepCurve, aggregate_curves, time_grid
from ..des.random import StreamFactory
from ..des.trace import Tracer
from ..obs.metrics import Metrics
from ..topology.csr import CSRAdjacency
from .model import PhoneNetworkModel
from .parameters import ScenarioConfig


@dataclass
class ScenarioResult:
    """Outcome of one simulated scenario replication."""

    config: ScenarioConfig
    seed: int
    replication: int
    final_time: float
    infection_times: List[float]
    counters: Dict[str, int]
    response_stats: Dict[str, Dict[str, float]]
    detection_time: Optional[float]
    patient_zero: Optional[int]
    susceptible_count: int
    population: int
    #: Lazily built infection curve (infection_times never mutates after
    #: construction, so the curve is computed at most once per result).
    _curve: Optional[StepCurve] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total_infected(self) -> int:
        """Cumulative infections including patient zero."""
        return len(self.infection_times)

    @property
    def penetration(self) -> float:
        """Final infections as a fraction of the susceptible population."""
        if self.susceptible_count == 0:
            return 0.0
        return self.total_infected / self.susceptible_count

    def curve(self) -> StepCurve:
        """The infection-count step curve, anchored at (0, 0) (cached)."""
        if self._curve is None:
            self._curve = StepCurve.from_event_times(self.infection_times)
        return self._curve

    def infected_at(self, time: float) -> float:
        """Cumulative infections at ``time``."""
        return self.curve().value_at(time)

    def infected_checkpoints(self, times: Sequence[float]) -> List[float]:
        """Cumulative infections sampled at several checkpoint times.

        The compact signature golden traces store: a handful of curve
        samples detects any shift of the infection trajectory without
        persisting every event time.
        """
        curve = self.curve()
        return [float(curve.value_at(t)) for t in times]

    def time_to_reach(self, level: float) -> Optional[float]:
        """First time cumulative infections reach ``level`` (None if never).

        Mirrors :meth:`repro.analysis.meanfield.MeanFieldResult.time_to_reach`
        so simulated and mean-field growth can be compared directly.
        """
        if level <= 0:
            return 0.0
        index = int(np.ceil(level)) - 1
        if index >= len(self.infection_times):
            return None
        return float(self.infection_times[index])


def run_scenario(
    config: ScenarioConfig,
    seed: int = 0,
    replication: int = 0,
    graph: Optional[CSRAdjacency] = None,
    patient_zero: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
) -> ScenarioResult:
    """Simulate one replication of ``config``.

    ``graph`` overrides topology sampling (useful for controlled studies
    and cross-validation); ``patient_zero`` pins the initial infection;
    ``tracer`` attaches a :class:`~repro.des.trace.Tracer` to the kernel
    (golden-trace recording fingerprints runs through it); ``metrics``
    attaches a :class:`~repro.obs.metrics.Metrics` registry so the run
    reports kernel telemetry (events fired/cancelled, heap peak, wall
    time) without altering the result itself.

    When ``config.engine`` is ``"xl"`` the run dispatches to the
    array-backed engine in :mod:`repro.xl`; results come back through
    the same :class:`ScenarioResult`, so caching, aggregation, and
    serialization are engine-agnostic.  The xl engine has no per-event
    kernel, so ``tracer`` is rejected there; ``metrics`` passes through
    (with ``time_events`` it times each round phase instead).
    """
    if config.engine == "xl":
        if tracer is not None:
            raise ValueError(
                "event tracing is not supported on the xl engine; "
                "use engine='core' for golden-trace recording"
            )
        from ..xl.engine import run_scenario_xl

        return run_scenario_xl(
            config,
            seed=seed,
            replication=replication,
            graph=graph,
            patient_zero=patient_zero,
            metrics=metrics,
        )
    streams = StreamFactory(seed).replication(replication)
    model = PhoneNetworkModel(
        config, streams, graph=graph, tracer=tracer, metrics=metrics
    )
    model.seed_infection(patient_zero)
    final_time = model.run()
    return ScenarioResult(
        config=config,
        seed=seed,
        replication=replication,
        final_time=final_time,
        infection_times=model.metrics.infection_times,
        counters={
            **model.metrics.counters(),
            "gateway_messages_processed": model.gateway.messages_processed,
            "gateway_messages_blocked": model.gateway.messages_blocked,
            "gateway_messages_delivered": model.gateway.messages_delivered,
            "events_fired": model.sim.events_fired,
        },
        response_stats={m.name: m.stats() for m in model.mechanisms},
        detection_time=model.detection.detection_time,
        patient_zero=model.patient_zero,
        susceptible_count=config.network.susceptible_count,
        population=config.network.population,
    )


@dataclass
class ReplicationSet:
    """Results of several independent replications of one scenario."""

    config: ScenarioConfig
    results: List[ScenarioResult] = field(default_factory=list)
    #: Curve-list cache, invalidated when results are appended (compare
    #: the cached length against ``len(results)``).
    _curves: Optional[List[StepCurve]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def replications(self) -> int:
        """Number of replications."""
        return len(self.results)

    @property
    def susceptible_count(self) -> int:
        """Susceptible phones per replication (constant across them)."""
        return self.config.network.susceptible_count

    def curves(self) -> List[StepCurve]:
        """Per-replication infection curves (cached across queries)."""
        if self._curves is None or len(self._curves) != len(self.results):
            self._curves = [r.curve() for r in self.results]
        return self._curves

    def final_infected(self) -> List[int]:
        """Per-replication final infection counts."""
        return [r.total_infected for r in self.results]

    def final_summary(self, confidence: float = 0.95) -> SampleSummary:
        """Statistics of the final infection count."""
        return summarize([float(v) for v in self.final_infected()], confidence)

    def mean_curve(self, grid_points: int = 200) -> StepCurve:
        """Mean infection curve as a step curve on a uniform grid."""
        band = self.band(grid_points)
        return StepCurve(list(zip(band.grid.tolist(), band.mean.tolist())))

    def band(self, grid_points: int = 200, confidence: float = 0.95) -> CurveBand:
        """Mean ± CI band of the infection curves on a uniform grid."""
        grid = time_grid(self.config.duration, grid_points)
        return aggregate_curves(self.curves(), grid, confidence)

    def mean_infected_at(self, time: float) -> float:
        """Mean cumulative infections at ``time`` across replications.

        Uses the cached per-replication curves, so repeated checkpoint
        queries (the figure reports tabulate several per series) don't
        re-parse every replication's event list.
        """
        return float(np.mean([c.value_at(time) for c in self.curves()]))

    def mean_detection_time(self) -> Optional[float]:
        """Mean detection time over replications where detection occurred."""
        times = [r.detection_time for r in self.results if r.detection_time is not None]
        if not times:
            return None
        return float(np.mean(times))

    def counter_total(self, name: str) -> int:
        """Sum of one counter across replications."""
        return sum(r.counters.get(name, 0) for r in self.results)


def replicate_scenario(
    config: ScenarioConfig,
    replications: int = 5,
    seed: int = 0,
    graph: Optional[CSRAdjacency] = None,
) -> ReplicationSet:
    """Run ``replications`` independent replications of ``config``.

    Each replication derives its own RNG streams (and thus topology,
    susceptibility draw, patient zero, and all behaviour) from
    ``(seed, replication index)``.  Passing ``graph`` pins the topology
    across replications instead.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    result_set = ReplicationSet(config=config)
    for index in range(replications):
        result_set.results.append(
            run_scenario(config, seed=seed, replication=index, graph=graph)
        )
    return result_set


__all__ = [
    "ScenarioResult",
    "ReplicationSet",
    "run_scenario",
    "replicate_scenario",
]
