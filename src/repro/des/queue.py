"""Time-ordered event queue with lazy cancellation.

A thin wrapper around :mod:`heapq` specialised for the simulation kernel:

* deterministic ordering — ties on time are broken by insertion order;
* O(log n) push/pop, O(1) cancellation (dead events are skipped on pop);
* periodic compaction so that a workload that cancels most of its events
  (e.g. reboot timers superseded by patches) does not grow the heap
  unboundedly.

Heap entries are plain ``(time, seq, event)`` tuples, not the events
themselves: heapq then orders entries with C-level tuple comparison
instead of a Python-level comparison per sift step, which is the single
hottest comparison site in the kernel.  The ``seq`` component is unique
per push, so the event object itself is never compared.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from .events import Event, EventState

#: One heap entry: (time, seq, event).
_HeapEntry = Tuple[float, int, Event]


class EventQueue:
    """Time-ordered queue of :class:`~repro.des.events.Event` objects."""

    #: Compact the heap when more than this fraction of entries are dead
    #: (and the heap is large enough for compaction to matter).
    _COMPACT_RATIO = 0.5
    _COMPACT_MIN_SIZE = 1024

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._cancelled = 0
        #: High-water mark of the raw heap size over the queue's lifetime.
        self.peak_size = 0
        #: Total cancellations over the queue's lifetime (monotonic, unlike
        #: the live ``_cancelled`` count which drops as dead entries pop).
        self.cancelled_total = 0

    def __len__(self) -> int:
        """Number of *live* (pending) events."""
        return len(self._heap) - self._cancelled

    def push_event(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at ``time``; the event is its cancel handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, label, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)
        return event

    def pop_due(self, limit: float) -> Tuple[Optional[Event], Optional[float]]:
        """Pop the next live event due at or before ``limit``.

        The run-loop hot path: one traversal both skips dead entries and
        decides between "fire", "next event is beyond the horizon", and
        "queue drained".

        Returns ``(event, event.time)`` when a fire-eligible event exists;
        ``(None, next_time)`` when the next live event lies beyond
        ``limit`` (it stays queued); ``(None, None)`` when no live events
        remain.
        """
        heap = self._heap
        heappop = heapq.heappop
        cancelled_state = EventState.CANCELLED
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.state is cancelled_state:
                heappop(heap)
                self._cancelled -= 1
                continue
            time = entry[0]
            if time > limit:
                return None, time
            heappop(heap)
            event.state = EventState.FIRED
            return event, time
        return None, None

    def note_cancellation(self) -> None:
        """Record that one heap entry was cancelled (:meth:`Event.cancel`)."""
        self._cancelled += 1
        self.cancelled_total += 1
        if (
            len(self._heap) >= self._COMPACT_MIN_SIZE
            and self._cancelled > len(self._heap) * self._COMPACT_RATIO
        ):
            live = [e for e in self._heap if e[2].state is EventState.PENDING]
            heapq.heapify(live)
            self._heap = live
            self._cancelled = 0


__all__ = ["EventQueue"]
