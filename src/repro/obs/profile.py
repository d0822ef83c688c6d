"""Hot-path profiling: one short instrumented scenario run.

``repro-sim profile`` (and :func:`run_profile` underneath) executes a
single replication with per-event-label timing enabled and reports where
the wall time went — setup (topology + model build) vs. the event loop,
and within the loop a per-label breakdown (``send``, ``install``,
``bt_encounter``, ...).  That breakdown is what perf PRs cite: it names
the label to attack and gives the events/sec headline to beat.

Per-event timing costs two ``perf_counter`` calls per event, so profile
numbers are *not* comparable to benchmark numbers — they answer "where
does the time go", not "how fast is the kernel".
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..core.model import PhoneNetworkModel
from ..core.parameters import MobilityParameters, NetworkParameters
from ..core.scenarios import baseline_scenario
from ..des.random import StreamFactory
from .metrics import Metrics


@dataclass
class ProfileReport:
    """Outcome of one instrumented profile run."""

    scenario_name: str
    seed: int
    wall_seconds: float
    setup_seconds: float
    run_seconds: float
    events: int
    final_infected: int
    kernel: Dict[str, int]
    #: Per-event-label rows: name, count, total/mean seconds, share of the
    #: measured event-callback time.  Sorted by total time, descending.
    hotspots: List[Dict[str, Any]] = field(default_factory=list)
    metrics_snapshot: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Event-loop throughput under instrumentation."""
        if self.run_seconds <= 0 or self.events <= 0:
            return 0.0
        return self.events / self.run_seconds

    def format(self, top: int = 10) -> str:
        """Human-readable breakdown for the CLI."""
        lines = [
            f"profile: {self.scenario_name}  (seed {self.seed})",
            f"wall: {self.wall_seconds:.3f}s  "
            f"(setup {self.setup_seconds:.3f}s, "
            f"event loop {self.run_seconds:.3f}s)",
            f"events: {self.events}  "
            f"({self.events_per_second:,.0f} ev/s under instrumentation)",
            f"kernel: heap peak {self.kernel.get('heap_peak', 0)}, "
            f"{self.kernel.get('events_cancelled', 0)} cancellations, "
            f"{self.kernel.get('pending_events', 0)} still pending",
            f"final infected: {self.final_infected}",
            "",
            f"{'event label':<16} {'count':>9} {'total s':>9} "
            f"{'mean µs':>9} {'share':>7}",
        ]
        for row in self.hotspots[:top]:
            lines.append(
                f"{row['label']:<16} {row['count']:>9} "
                f"{row['total_seconds']:>9.4f} {row['mean_micros']:>9.1f} "
                f"{row['share']:>6.1%}"
            )
        shown = self.hotspots[:top]
        remainder = len(self.hotspots) - len(shown)
        if remainder > 0:
            lines.append(f"... and {remainder} more labels")
        return "\n".join(lines)

    def manifest_sections(self) -> Dict[str, Any]:
        """Keyword sections for :func:`repro.obs.manifest.build_manifest`."""
        return {
            "wall_seconds": self.run_seconds,
            "events_executed": self.events,
            "seed": self.seed,
            "kernel": {
                "events_fired": self.kernel.get("events_fired", 0),
                "events_cancelled": self.kernel.get("events_cancelled", 0),
                "heap_peak": self.kernel.get("heap_peak", 0),
            },
            "metrics": self.metrics_snapshot,
            "extra": {
                "setup_seconds": round(self.setup_seconds, 6),
                "final_infected": self.final_infected,
                "hotspots": self.hotspots,
            },
        }


@dataclass
class XLProfileReport:
    """Outcome of one phase-instrumented xl-engine run.

    The xl engine has no per-event callbacks to time; its unit of work is
    the round, and each round walks a fixed sequence of vectorised phases
    (budget boundaries, reboots, patches, sends, deliveries, installs,
    round scheduling).  The breakdown here is per *phase*, accumulated
    across every round of the run.
    """

    scenario_name: str
    preset: str
    seed: int
    wall_seconds: float
    build_seconds: float
    run_seconds: float
    events: int
    rounds: int
    final_infected: int
    #: Process peak resident set size (``ru_maxrss``) after the run, MiB —
    #: at xl-1m this is the topology build's high-water mark.
    peak_rss_mib: float
    #: Per-phase rows: name, total seconds, share of the measured
    #: round-loop time.  Sorted by total time, descending.
    phases: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        """Round-loop throughput under phase instrumentation."""
        if self.run_seconds <= 0 or self.events <= 0:
            return 0.0
        return self.events / self.run_seconds

    def format(self, top: int = 10) -> str:
        """Human-readable breakdown for the CLI."""
        lines = [
            f"profile: {self.scenario_name}  "
            f"(xl engine, preset {self.preset}, seed {self.seed})",
            f"wall: {self.wall_seconds:.3f}s  "
            f"(build {self.build_seconds:.3f}s, "
            f"round loop {self.run_seconds:.3f}s, "
            f"peak_rss_mib {self.peak_rss_mib:.1f})",
            f"events: {self.events}  rounds: {self.rounds}  "
            f"({self.events_per_second:,.0f} ev/s under instrumentation)",
            f"final infected: {self.final_infected}",
            "",
            f"{'round phase':<20} {'total s':>9} {'per round µs':>13} "
            f"{'share':>7}",
        ]
        for row in self.phases[:top]:
            lines.append(
                f"{row['phase']:<20} {row['total_seconds']:>9.4f} "
                f"{row['per_round_micros']:>13.1f} {row['share']:>6.1%}"
            )
        return "\n".join(lines)

    def manifest_sections(self) -> Dict[str, Any]:
        """Keyword sections for :func:`repro.obs.manifest.build_manifest`."""
        return {
            "wall_seconds": self.run_seconds,
            "events_executed": self.events,
            "seed": self.seed,
            "extra": {
                "engine": "xl",
                "preset": self.preset,
                "build_seconds": round(self.build_seconds, 6),
                "peak_rss_mib": round(self.peak_rss_mib, 1),
                "rounds": self.rounds,
                "final_infected": self.final_infected,
                "phases": self.phases,
            },
        }


def _peak_rss_mib() -> float:
    """This process's peak resident set size (``ru_maxrss``), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def run_profile_xl(
    virus: int = 1,
    preset: str = "xl-10k",
    duration: Optional[float] = None,
    seed: int = 0,
    bluetooth_rate: float = 0.0,
    mobility: Optional[MobilityParameters] = None,
) -> XLProfileReport:
    """Run one phase-instrumented xl replication and assemble its breakdown.

    Builds and runs one replication as
    :func:`repro.xl.engine.run_scenario_xl` does (same construction
    order, same seeding) but with ``profile_phases=True``, so per-round
    phase wall time accumulates in :attr:`XLEngine.phase_seconds`.  The
    process's peak RSS is read after the run, so profile one scenario
    per process (as the CLI does) to read it as that scenario's
    footprint.  A non-zero
    ``bluetooth_rate`` (optionally with waypoint ``mobility``) switches
    the scenario to the hybrid preset, adding the ``bt_encounters``
    phase to the breakdown.
    """
    from ..des.random import StreamFactory as _StreamFactory
    from ..xl.engine import XLEngine
    from ..xl.presets import hybrid_scenario, xl_scenario

    if bluetooth_rate > 0:
        config = hybrid_scenario(
            virus,
            preset,
            duration=duration,
            bluetooth_rate=bluetooth_rate,
            mobility=mobility,
        )
    else:
        config = xl_scenario(virus, preset, duration=duration)
    wall_start = perf_counter()
    engine = XLEngine(
        config, _StreamFactory(seed).replication(0), profile_phases=True
    )
    built = perf_counter()
    engine.seed_infection()
    engine.run()
    finished = perf_counter()

    rounds = int(engine.counters["xl_rounds"])
    measured_total = sum(engine.phase_seconds.values()) or 1.0
    phases = [
        {
            "phase": name,
            "total_seconds": round(total, 6),
            "per_round_micros": round(total / rounds * 1e6, 3) if rounds else 0.0,
            "share": round(total / measured_total, 4),
        }
        for name, total in sorted(
            engine.phase_seconds.items(), key=lambda kv: kv[1], reverse=True
        )
    ]
    return XLProfileReport(
        scenario_name=config.name,
        preset=preset,
        seed=seed,
        wall_seconds=finished - wall_start,
        build_seconds=built - wall_start,
        run_seconds=finished - built,
        events=int(engine.counters["events_fired"]),
        rounds=rounds,
        final_infected=len(engine.infection_times),
        peak_rss_mib=_peak_rss_mib(),
        phases=phases,
    )


def run_profile(
    virus: int = 1,
    population: Optional[int] = None,
    duration: Optional[float] = None,
    max_events: Optional[int] = None,
    seed: int = 0,
) -> ProfileReport:
    """Run one instrumented replication and assemble its breakdown.

    ``max_events`` caps the event loop (profiles stay short even for the
    432-hour Virus 1 horizon); ``population``/``duration`` shrink the
    scenario itself.
    """
    network = NetworkParameters(population=population) if population else None
    config = baseline_scenario(virus, network=network, duration=duration)
    metrics = Metrics(enabled=True, time_events=True)

    wall_start = perf_counter()
    streams = StreamFactory(seed).replication(0)
    model = PhoneNetworkModel(config, streams, metrics=metrics)
    model.seed_infection()
    setup_seconds = perf_counter() - wall_start

    run_start = perf_counter()
    model.sim.run(until=config.duration, max_events=max_events)
    run_seconds = perf_counter() - run_start

    snapshot = metrics.snapshot()
    timers = snapshot.get("timers", {})
    event_timers = {
        name[len("event.") :]: moments
        for name, moments in timers.items()
        if name.startswith("event.")
    }
    measured_total = sum(m["total"] for m in event_timers.values()) or 1.0
    hotspots = [
        {
            "label": label,
            "count": moments["count"],
            "total_seconds": round(moments["total"], 6),
            "mean_micros": round(
                moments["total"] / moments["count"] * 1e6, 3
            )
            if moments["count"]
            else 0.0,
            "share": round(moments["total"] / measured_total, 4),
        }
        for label, moments in sorted(
            event_timers.items(), key=lambda kv: kv[1]["total"], reverse=True
        )
    ]
    return ProfileReport(
        scenario_name=config.name,
        seed=seed,
        wall_seconds=perf_counter() - wall_start,
        setup_seconds=setup_seconds,
        run_seconds=run_seconds,
        events=model.sim.events_fired,
        final_infected=model.total_infected,
        kernel=model.sim.kernel_stats(),
        hotspots=hotspots,
        metrics_snapshot=snapshot,
    )


__all__ = ["ProfileReport", "XLProfileReport", "run_profile", "run_profile_xl"]
