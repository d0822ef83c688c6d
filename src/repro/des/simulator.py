"""The discrete-event simulator: clock + event queue + run loop.

This is the executable substrate for every model in the package (the phone
network model in :mod:`repro.core` schedules callbacks directly; the SAN
layer in :mod:`repro.san` is built on top of it).

Semantics:

* time is a non-negative float (the phone model uses hours);
* events at equal times fire in (priority, insertion) order, so runs are
  fully deterministic given a seed;
* ``schedule`` takes a *delay*; ``schedule_at`` takes an absolute time;
  scheduling in the past is an error;
* the run loop stops at an end time, after a number of events, when a stop
  condition becomes true, or when the queue drains.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..obs.metrics import NULL_METRICS, Metrics
from .events import PRIORITY_NORMAL, EventHandle
from .queue import EventQueue
from .trace import NULL_TRACER, Tracer


class SimulationError(RuntimeError):
    """Raised for invalid scheduling or run-loop misuse."""


class Simulator:
    """Event-scheduling discrete-event simulator.

    ``metrics`` attaches a :class:`~repro.obs.metrics.Metrics` registry;
    when enabled, each :meth:`run` reports ``des.events_fired``,
    ``des.events_cancelled``, the ``des.heap_peak`` gauge, and a
    ``des.run_seconds`` timer, and (with ``time_events``) per-event-label
    ``event.<label>`` timers for hot-path profiling.  The default
    :data:`~repro.obs.metrics.NULL_METRICS` costs the hot loop nothing
    beyond one hoisted boolean check.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stop_requested = False
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._events_fired = 0
        self._end_hooks: List[Callable[[], None]] = []
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
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        event = self._queue.push_event(self._now + delay, callback, priority, label)
        return _TrackedHandle(event, self._queue)

    def schedule_fast(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> None:
        """Schedule a fire-and-forget callback ``delay`` time units from now.

        Identical queue semantics to :meth:`schedule` (same ordering, same
        sequence numbering) but returns no handle, so call sites that never
        cancel — deliveries, installs, periodic ticks — skip one handle
        allocation per event on the hot path.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        self._queue.push_event(self._now + delay, callback, priority, label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before current time {self._now}"
            )
        event = self._queue.push_event(time, callback, priority, label)
        return _TrackedHandle(event, self._queue)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def add_end_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable invoked once when a run finishes."""
        self._end_hooks.append(hook)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
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
        stop_when:
            Predicate evaluated after every event; truthy stops the run.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (no re-entrant runs)")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is before current time {self._now}")

        self._running = True
        self._stop_requested = False
        fired_this_run = 0
        # Hot loop: pop_due does one heap traversal per event (skip-dead +
        # horizon check + pop combined), and the queue/tracer/metrics
        # lookups are hoisted out of the loop.  The loop *kernel* is chosen
        # once per run: with tracing and telemetry off and no per-event
        # predicates, the tight loop in :meth:`_run_plain` fires callbacks
        # with zero instrumentation branches per event.
        queue = self._queue
        pop_due = queue.pop_due
        tracer = self.tracer
        metrics = self.metrics
        collect = metrics.enabled
        time_events = metrics.time_events
        run_start = perf_counter() if collect else 0.0
        limit = math.inf if until is None else until
        plain = (
            not collect
            and not tracer.enabled
            and max_events is None
            and stop_when is None
        )
        try:
            if plain:
                fired_this_run = self._run_plain(pop_due, limit, until)
            else:
                while True:
                    if self._stop_requested:
                        break
                    if max_events is not None and fired_this_run >= max_events:
                        break
                    event, next_time = pop_due(limit)
                    if event is None:
                        if next_time is None:
                            if until is not None:
                                self._now = max(self._now, until)
                        else:
                            self._now = until
                        break
                    self._now = next_time
                    self._events_fired += 1
                    fired_this_run += 1
                    if tracer.enabled and event.label:
                        tracer.record(next_time, "event", event.label)
                    if time_events:
                        started = perf_counter()
                        event.callback()
                        metrics.observe(
                            "event." + (event.label or "unlabeled"),
                            perf_counter() - started,
                        )
                    else:
                        event.callback()
                    if stop_when is not None and stop_when():
                        break
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
        for hook in self._end_hooks:
            hook()
        return self._now

    def _run_plain(self, pop_due, limit: float, until: Optional[float]) -> int:
        """Uninstrumented run-loop kernel (tracing/telemetry/predicates off).

        Event and clock semantics are identical to the general loop in
        :meth:`run`; the only difference is that no per-event branch ever
        consults the tracer, the metrics registry, ``max_events``, or
        ``stop_when``.  The fired count folds into ``_events_fired`` even
        when a callback raises.
        """
        fired = 0
        try:
            while not self._stop_requested:
                event, next_time = pop_due(limit)
                if event is None:
                    if next_time is None:
                        if until is not None:
                            self._now = max(self._now, until)
                    else:
                        self._now = until
                    break
                self._now = next_time
                fired += 1
                event.callback()
        finally:
            self._events_fired += fired
        return fired

    def step(self) -> bool:
        """Fire exactly one event.  Returns ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        self._events_fired += 1
        if self.tracer.enabled and event.label:
            self.tracer.record(self._now, "event", event.label)
        event.callback()
        return True

    def peek_next_time(self) -> Optional[float]:
        """Time of the next scheduled event without firing it."""
        return self._queue.peek_time()

    def kernel_stats(self) -> Dict[str, int]:
        """Lifetime kernel telemetry (events, cancellations, heap peak)."""
        return {
            "events_fired": self._events_fired,
            "events_cancelled": self._queue.cancelled_total,
            "heap_peak": self._queue.peak_size,
            "pending_events": len(self._queue),
        }


class _TrackedHandle(EventHandle):
    """Event handle that informs the queue about cancellations.

    Keeping the accounting here lets ``len(queue)`` stay exact without the
    queue scanning for dead entries.
    """

    __slots__ = ("_queue",)

    def __init__(self, event, queue: EventQueue) -> None:
        super().__init__(event)
        self._queue = queue

    def cancel(self) -> bool:
        cancelled = super().cancel()
        if cancelled:
            self._queue.note_cancellation()
        return cancelled


__all__ = ["Simulator", "SimulationError"]
