"""Tests for the event queue (ordering, lazy deletion, compaction)."""

from __future__ import annotations

import math

from repro.des.events import EventState
from repro.des.queue import EventQueue


def _pop(queue):
    """The next live event, or ``None`` when the queue is drained."""
    return queue.pop_due(math.inf)[0]


def test_push_pop_ordering():
    queue = EventQueue()
    queue.push_event(3.0, lambda: None, label="c")
    queue.push_event(1.0, lambda: None, label="a")
    queue.push_event(2.0, lambda: None, label="b")
    labels = []
    while len(queue):
        labels.append(_pop(queue).label)
    assert labels == ["a", "b", "c"]


def test_ties_broken_by_priority_then_sequence():
    queue = EventQueue()
    queue.push_event(1.0, lambda: None, label="first")
    queue.push_event(0.5, lambda: None, label="earlier")
    queue.push_event(1.0, lambda: None, label="second")
    queue.push_event(1.0, lambda: None, label="third")
    assert [_pop(queue).label for _ in range(4)] == [
        "earlier", "first", "second", "third",
    ]


def test_len_counts_live_events():
    queue = EventQueue()
    events = [queue.push_event(float(i), lambda: None) for i in range(5)]
    assert len(queue) == 5
    assert events[0].cancel() is True
    assert len(queue) == 4
    assert events[0].cancel() is False  # a second cancel is not counted
    assert len(queue) == 4


def test_pop_skips_cancelled():
    queue = EventQueue()
    dead = queue.push_event(1.0, lambda: None, label="dead")
    queue.push_event(2.0, lambda: None, label="live")
    dead.cancel()
    event, time = queue.pop_due(math.inf)
    assert event.label == "live" and time == 2.0
    assert queue.pop_due(math.inf) == (None, None)


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    dead = queue.push_event(1.0, lambda: None)
    queue.push_event(5.0, lambda: None)
    dead.cancel()
    # Beyond the limit: the next live time is reported, nothing is popped.
    assert queue.pop_due(4.0) == (None, 5.0)
    assert len(queue) == 1


def test_pop_empty_returns_none():
    queue = EventQueue()
    assert queue.pop_due(math.inf) == (None, None)
    assert queue.pop_due(0.0) == (None, None)


def test_popped_event_marked_fired():
    queue = EventQueue()
    queue.push_event(1.0, lambda: None)
    event = _pop(queue)
    assert event.state is EventState.FIRED
    assert event.cancel() is False
    assert len(queue) == 0


def test_compaction_removes_dead_entries():
    queue = EventQueue()
    events = [queue.push_event(float(i), lambda: None) for i in range(4096)]
    for event in events[:3000]:
        event.cancel()
    # Compaction triggered: the raw heap no longer holds all dead entries.
    assert len(queue._heap) < 4096
    assert len(queue) == 1096
    assert queue.cancelled_total == 3000
    # Remaining events still pop in order.
    assert _pop(queue).time == 3000.0


def test_many_interleaved_push_cancel_pop():
    queue = EventQueue()
    kept = []
    for i in range(200):
        event = queue.push_event(float(200 - i), lambda: None, label=str(200 - i))
        if i % 3 == 0:
            event.cancel()
        else:
            kept.append(200 - i)
    popped = []
    while len(queue):
        popped.append(int(_pop(queue).label))
    assert popped == sorted(kept)
