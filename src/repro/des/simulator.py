"""The discrete-event simulator: clock + event queue + run loop.

This is the executable substrate for every model in the package (the phone
network model in :mod:`repro.core` schedules callbacks directly; the SAN
layer in :mod:`repro.san` is built on top of it).

Semantics:

* time is a non-negative float (the phone model uses hours);
* events at equal times fire in insertion order, so runs are fully
  deterministic given a seed;
* ``schedule`` takes a *delay*; ``schedule_at`` takes an absolute time;
  scheduling in the past is an error; both return the
  :class:`~repro.des.events.Event`, which cancels itself;
* the run loop stops at an end time, after a number of events, or when
  the queue drains.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Optional

from ..obs.metrics import NULL_METRICS, Metrics
from .events import Event
from .queue import EventQueue


class SimulationError(RuntimeError):
    """Raised for invalid scheduling or run-loop misuse."""


class Simulator:
    """Event-scheduling discrete-event simulator.

    ``metrics`` attaches a :class:`~repro.obs.metrics.Metrics` registry;
    when enabled, each :meth:`run` reports ``des.events_fired``,
    ``des.events_cancelled``, the ``des.heap_peak`` gauge, and a
    ``des.run_seconds`` timer, and (with ``time_events``) per-event-label
    ``event.<label>`` timers for hot-path profiling.  The default
    :data:`~repro.obs.metrics.NULL_METRICS` costs the hot loop nothing.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._events_fired = 0
        # Cancellations already reported to the metrics registry; lets
        # successive run() calls sum to the lifetime total (including
        # cancellations made between runs or during setup).
        self._cancellations_reported = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self._queue.push_event(self._now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before current time {self._now}"
            )
        return self._queue.push_event(time, callback, label)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Execute events until a limit is reached.

        Parameters
        ----------
        until:
            Absolute end time.  Events scheduled exactly at ``until`` do
            fire; the clock never passes ``until``.  When the queue drains
            earlier, the clock is advanced to ``until`` (so interval metrics
            cover the full horizon).
        max_events:
            Stop after this many events have fired in *this* call.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (no re-entrant runs)")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is before current time {self._now}")

        self._running = True
        fired_this_run = 0
        # The loop is chosen once per run: with telemetry off and no
        # ``max_events``, the tight loop in :meth:`_run_plain` fires
        # callbacks with no instrumentation branch per event.
        queue = self._queue
        pop_due = queue.pop_due
        metrics = self.metrics
        collect = metrics.enabled
        time_events = metrics.time_events
        run_start = perf_counter() if collect else 0.0
        limit = math.inf if until is None else until
        try:
            if not collect and max_events is None:
                fired_this_run = self._run_plain(pop_due, limit, until)
            else:
                while max_events is None or fired_this_run < max_events:
                    event, next_time = pop_due(limit)
                    if event is None:
                        if until is not None:
                            self._now = until
                        break
                    self._now = next_time
                    self._events_fired += 1
                    fired_this_run += 1
                    if time_events:
                        started = perf_counter()
                        event.callback()
                        metrics.observe(
                            "event." + (event.label or "unlabeled"),
                            perf_counter() - started,
                        )
                    else:
                        event.callback()
        finally:
            self._running = False
            if collect:
                metrics.inc("des.runs")
                metrics.inc("des.events_fired", fired_this_run)
                metrics.inc(
                    "des.events_cancelled",
                    queue.cancelled_total - self._cancellations_reported,
                )
                self._cancellations_reported = queue.cancelled_total
                metrics.gauge_max("des.heap_peak", queue.peak_size)
                metrics.observe("des.run_seconds", perf_counter() - run_start)
        return self._now

    def _run_plain(self, pop_due, limit: float, until: Optional[float]) -> int:
        """Uninstrumented run loop (telemetry off, no ``max_events``).

        Event and clock semantics are identical to the loop in
        :meth:`run`.  The fired count folds into ``_events_fired`` even
        when a callback raises.
        """
        fired = 0
        try:
            while True:
                event, next_time = pop_due(limit)
                if event is None:
                    if until is not None:
                        self._now = until
                    break
                self._now = next_time
                fired += 1
                event.callback()
        finally:
            self._events_fired += fired
        return fired


__all__ = ["Simulator", "SimulationError"]
