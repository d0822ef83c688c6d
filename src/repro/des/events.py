"""The scheduled event, which is also its own cancellation handle.

The kernel schedules :class:`Event` objects onto a time-ordered queue.  An
event couples a firing time, a monotonically increasing sequence number
(FIFO order among events at equal times), a callback, and a label (the
profiler times events per label).  ``Simulator.schedule`` returns the
event itself, so the scheduling site can later cancel it (e.g. a reboot
timer superseded by a patch) or check whether it fired.

Cancellation is O(1) *lazy deletion*: a cancelled event stays in the heap
and is skipped when it reaches the top.  :meth:`Event.cancel` tells the
owning queue, so the queue's live count and compaction stay exact.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .queue import EventQueue


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class Event:
    """A scheduled callback.

    Parameters
    ----------
    time:
        Simulation time at which the event fires.
    seq:
        Monotonic sequence number assigned by the queue; breaks ties among
        equal times deterministically (FIFO).
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Optional tag; per-label timers in the profiler are keyed by it.
    queue:
        The queue holding the event, told about a cancellation.
    """

    __slots__ = ("time", "seq", "callback", "label", "state", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.state = EventState.PENDING
        self._queue = queue

    def cancel(self) -> bool:
        """Cancel the event if it is still pending.

        Returns ``True`` if this call cancelled the event, ``False`` if it
        had already fired or been cancelled.
        """
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            self.callback = _noop
            self._queue.note_cancellation()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.6g}, seq={self.seq}, "
            f"label={self.label!r}, state={self.state.value})"
        )


def _noop() -> None:
    """Replacement callback for cancelled events (drops references)."""


__all__ = ["Event", "EventState"]
