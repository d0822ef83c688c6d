"""Low-overhead metrics registry: counters, gauges, timers.

Design goals, in priority order:

1. **Near-zero cost when disabled.**  Kernel and scheduler code holds a
   registry unconditionally (:data:`NULL_METRICS` by default) and either
   hoists ``metrics.enabled`` out of hot loops or calls the record
   methods directly — every record method early-returns after one
   boolean attribute check when disabled, and the registry never
   allocates instruments it was not asked for.
2. **Mergeable across processes.**  Worker processes snapshot their
   registry to a plain JSON-able dict; the parent merges snapshots
   (counters add, gauges take the max, timers combine their moments), so
   a parallel run aggregates exactly like a serial one.
3. **No global state.**  A registry is an ordinary object owned by
   whoever is instrumenting (a simulator, a scheduler, the profiler);
   two concurrent runs never share instruments.

Naming convention: dotted lowercase paths, subsystem first —
``des.events_fired``, ``scheduler.jobs``, ``event.send``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping


class Counter:
    """Monotonically increasing integer value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (may be any non-negative int)."""
        self.value += amount


class Gauge:
    """A point-in-time value; merges take the maximum (high-water mark)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = value

    def set_max(self, value: float) -> None:
        """Raise the value to ``value`` if larger (high-water tracking)."""
        if value > self.value:
            self.value = value


class Timer:
    """Accumulated duration observations (count/total/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration, in seconds."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Mean observed duration (0 when nothing was observed)."""
        return self.total / self.count if self.count else 0.0

    def combine(self, count: int, total: float, min_: float, max_: float) -> None:
        """Fold another timer's moments into this one (for merges)."""
        if count <= 0:
            return
        self.count += count
        self.total += total
        if min_ < self.min:
            self.min = min_
        if max_ > self.max:
            self.max = max_


class Metrics:
    """Registry of named counters, gauges, and timers.

    ``enabled=False`` turns every record method into a boolean check and
    keeps the registry empty; ``time_events=True`` additionally opts an
    engine into timing each unit of work — one ``event.<label>`` timer
    per DES event label on the core engine, one ``xl.phase.<name>``
    timer per round phase on the xl engine (profiling mode — meaningful
    per-unit overhead, so it is a separate knob from ``enabled``).
    """

    __slots__ = ("enabled", "time_events", "_counters", "_gauges", "_timers")

    def __init__(self, enabled: bool = True, time_events: bool = False) -> None:
        self.enabled = enabled
        self.time_events = time_events and enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument accessors (create on first use) ---------------------------

    def counter(self, name: str) -> Counter:
        """The named counter (created on first access)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first access)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def timer(self, name: str) -> Timer:
        """The named timer (created on first access)."""
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer()
        return instrument

    # -- record methods (no-ops when disabled) --------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``; no-op when disabled."""
        if not self.enabled:
            return
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``; no-op when disabled."""
        if not self.enabled:
            return
        self.gauge(name).set(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger; no-op when disabled."""
        if not self.enabled:
            return
        self.gauge(name).set_max(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration on timer ``name``; no-op when disabled."""
        if not self.enabled:
            return
        self.timer(name).observe(seconds)

    # -- introspection / aggregation ------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def gauge_value(self, name: str) -> float:
        """Current value of gauge ``name`` (0.0 when never set)."""
        instrument = self._gauges.get(name)
        return instrument.value if instrument is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every instrument (mergeable via :meth:`merge`)."""
        return {
            "counters": {k: v.value for k, v in sorted(self._counters.items())},
            "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
            "timers": {
                k: {
                    "count": t.count,
                    "total": t.total,
                    "min": t.min if t.count else 0.0,
                    "max": t.max,
                }
                for k, t in sorted(self._timers.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold one :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters add, gauges keep the maximum, timers combine.
        Merging is allowed even on a disabled registry — the parent decides
        whether to aggregate, not the producer.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(float(value))
        for name, moments in snapshot.get("timers", {}).items():
            self.timer(name).combine(
                int(moments["count"]),
                float(moments["total"]),
                float(moments["min"]) if moments["count"] else float("inf"),
                float(moments["max"]),
            )

    def clear(self) -> None:
        """Drop every instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._timers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Metrics(enabled={self.enabled}, counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timers={len(self._timers)})"
        )


#: Shared disabled registry: hold this by default so instrumented code can
#: call record methods unconditionally at one-boolean-check cost.
NULL_METRICS = Metrics(enabled=False)


__all__ = ["Counter", "Gauge", "Metrics", "NULL_METRICS", "Timer"]
