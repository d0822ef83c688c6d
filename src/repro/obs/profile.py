"""Hot-path profiling: one short instrumented scenario run.

``repro-sim profile`` (and :func:`run_profile` underneath) executes a
single replication of a scenario with a
:class:`~repro.obs.metrics.Metrics` registry in ``time_events`` mode and
reports where the wall time went — setup (topology + model build) vs.
the run, and within the run a breakdown read from the registry's
timers.  The unit of work depends on the engine ``config.engine``
names: the core DES times each event label (``send``, ``install``,
``bt_encounter``, ...), the xl engine each round phase (``sends``,
``deliveries``, ``round_scheduling``, ...).  Both breakdowns share one
row schema, so a perf PR cites either the same way: it names the row to
attack and gives the events/sec headline to beat.

Per-unit timing costs two ``perf_counter`` calls per event or phase, so
profile numbers are *not* comparable to benchmark numbers — they answer
"where does the time go", not "how fast is the engine".
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..core.model import PhoneNetworkModel
from ..core.parameters import ScenarioConfig
from ..des.random import StreamFactory
from .metrics import Metrics

#: Registry timer prefix of each engine's unit of work.
_TIMER_PREFIX = {"core": "event.", "xl": "xl.phase."}


@dataclass
class ProfileReport:
    """Outcome of one instrumented profile run."""

    scenario_name: str
    engine: str
    population: int
    seed: int
    wall_seconds: float
    setup_seconds: float
    run_seconds: float
    events: int
    final_infected: int
    #: Process peak resident set size (``ru_maxrss``) after the run, MiB —
    #: at xl-1m this is the topology build's high-water mark.
    peak_rss_mib: float
    #: One row per timed unit of work: name, count, total seconds, mean
    #: microseconds, share of the measured total.  Sorted by total time,
    #: descending.
    breakdown: List[Dict[str, Any]] = field(default_factory=list)
    metrics_snapshot: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Run throughput under instrumentation."""
        if self.run_seconds <= 0 or self.events <= 0:
            return 0.0
        return self.events / self.run_seconds

    def format(self, top: int = 10) -> str:
        """Human-readable breakdown for the CLI."""
        unit = "event label" if self.engine == "core" else "round phase"
        lines = [
            f"profile: {self.scenario_name}  "
            f"({self.engine} engine, N={self.population}, seed {self.seed})",
            f"wall: {self.wall_seconds:.3f}s  "
            f"(setup {self.setup_seconds:.3f}s, "
            f"run {self.run_seconds:.3f}s, "
            f"peak_rss_mib {self.peak_rss_mib:.1f})",
            f"events: {self.events}  "
            f"({self.events_per_second:,.0f} ev/s under instrumentation)",
            f"final infected: {self.final_infected}",
            "",
            f"{unit:<20} {'count':>9} {'total s':>9} "
            f"{'mean µs':>9} {'share':>7}",
        ]
        shown = self.breakdown[:top]
        for row in shown:
            lines.append(
                f"{row['name']:<20} {row['count']:>9} "
                f"{row['total_seconds']:>9.4f} {row['mean_micros']:>9.1f} "
                f"{row['share']:>6.1%}"
            )
        remainder = len(self.breakdown) - len(shown)
        if remainder > 0:
            lines.append(f"... and {remainder} more rows")
        return "\n".join(lines)

    def manifest_sections(self) -> Dict[str, Any]:
        """Keyword sections for :func:`repro.obs.manifest.build_manifest`."""
        counters = self.metrics_snapshot.get("counters", {})
        gauges = self.metrics_snapshot.get("gauges", {})
        return {
            "wall_seconds": self.run_seconds,
            "events_executed": self.events,
            "seed": self.seed,
            "kernel": {
                "events_fired": self.events,
                "events_cancelled": counters.get("des.events_cancelled", 0),
                "heap_peak": int(gauges.get("des.heap_peak", 0)),
            },
            "metrics": self.metrics_snapshot,
            "extra": {
                "engine": self.engine,
                "population": self.population,
                "setup_seconds": round(self.setup_seconds, 6),
                "peak_rss_mib": round(self.peak_rss_mib, 1),
                "final_infected": self.final_infected,
                "breakdown": self.breakdown,
            },
        }


def _peak_rss_mib() -> float:
    """This process's peak resident set size (``ru_maxrss``), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _breakdown(timers: Dict[str, Dict[str, Any]], prefix: str) -> List[Dict[str, Any]]:
    """Rows for every ``prefix``-named timer of a registry snapshot."""
    units = {
        name[len(prefix):]: moments
        for name, moments in timers.items()
        if name.startswith(prefix)
    }
    measured_total = sum(m["total"] for m in units.values()) or 1.0
    return [
        {
            "name": name,
            "count": moments["count"],
            "total_seconds": round(moments["total"], 6),
            "mean_micros": round(moments["total"] / moments["count"] * 1e6, 3)
            if moments["count"]
            else 0.0,
            "share": round(moments["total"] / measured_total, 4),
        }
        for name, moments in sorted(
            units.items(), key=lambda kv: kv[1]["total"], reverse=True
        )
    ]


def run_profile(
    config: ScenarioConfig, seed: int = 0, max_events: Optional[int] = None
) -> ProfileReport:
    """Run one instrumented replication of ``config`` and assemble its breakdown.

    Builds and runs replication 0 exactly as
    :func:`repro.core.simulation.run_scenario` does for ``config.engine``
    (same construction order, same seeding), with a ``time_events``
    registry attached.  ``max_events`` caps the core event loop so
    profiles stay short even for the 432-hour Virus 1 horizon; the xl
    engine advances in rounds and rejects it with ``ValueError``.  The
    process's peak RSS is read after the run, so profile one scenario per
    process (as the CLI does) to read it as that scenario's footprint.
    """
    if config.engine == "xl" and max_events is not None:
        raise ValueError(
            "max_events caps the core event loop; the xl engine runs in "
            "rounds (shorten it with the duration instead)"
        )
    metrics = Metrics(enabled=True, time_events=True)
    wall_start = perf_counter()
    streams = StreamFactory(seed).replication(0)
    if config.engine == "xl":
        from ..xl.engine import XLEngine

        engine = XLEngine(config, streams, metrics=metrics)
        engine.seed_infection()
        run_start = perf_counter()
        engine.run()
        events = int(engine.counters["events_fired"])
        final_infected = len(engine.infection_times)
    else:
        model = PhoneNetworkModel(config, streams, metrics=metrics)
        model.seed_infection()
        run_start = perf_counter()
        model.sim.run(until=config.duration, max_events=max_events)
        events = model.sim.events_fired
        final_infected = model.total_infected
    finished = perf_counter()

    snapshot = metrics.snapshot()
    return ProfileReport(
        scenario_name=config.name,
        engine=config.engine,
        population=config.network.population,
        seed=seed,
        wall_seconds=finished - wall_start,
        setup_seconds=run_start - wall_start,
        run_seconds=finished - run_start,
        events=events,
        final_infected=final_infected,
        peak_rss_mib=_peak_rss_mib(),
        breakdown=_breakdown(snapshot["timers"], _TIMER_PREFIX[config.engine]),
        metrics_snapshot=snapshot,
    )


__all__ = ["ProfileReport", "run_profile"]
