"""Tests for the discrete-event simulator core (clock, scheduling, run loop)."""

from __future__ import annotations

import pytest

from repro.des import SimulationError, Simulator
from repro.des.events import EventState


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_equal_times_fire_in_priority_then_fifo_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("first"))
    sim.schedule_at(1.0, lambda: fired.append("second"))
    sim.schedule(0.5, lambda: fired.append("earlier"))
    sim.schedule(1.0, lambda: fired.append("third"))
    sim.run()
    assert fired == ["earlier", "first", "second", "third"]


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    end = sim.run(until=3.0)
    assert fired == [1]
    assert end == 3.0
    assert sim.now == 3.0
    # The 5.0 event is still pending and fires on a later run.
    sim.run(until=10.0)
    assert fired == [1, 5]
    # Queue drained: clock advances to the new horizon anyway.
    assert sim.now == 10.0


def test_event_exactly_at_until_fires():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("edge"))
    sim.run(until=3.0)
    assert fired == ["edge"]


def test_schedule_during_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(3.0, lambda: None)


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
    sim.schedule(2.0, lambda: fired.append("kept"))
    assert handle.cancel() is True
    assert handle.cancel() is False  # second cancel is a no-op
    sim.run()
    assert fired == ["kept"]
    assert handle.state is EventState.CANCELLED


def test_cancel_after_fire_returns_false():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert handle.state is EventState.FIRED
    assert handle.cancel() is False
    assert sim.pending_events == 0


def test_pending_event_count_tracks_cancellations():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending_events == 6


def test_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0
    assert sim.pending_events == 6


def test_events_fired_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 5


def test_step_fires_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run(max_events=1)
    assert fired == [1] and sim.now == 1.0
    sim.run(max_events=1)
    assert fired == [1, 2] and sim.now == 2.0
    sim.run(max_events=1)
    assert fired == [1, 2] and sim.events_fired == 2


def test_no_reentrant_runs():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_determinism_with_same_schedule():
    def run_once():
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule((i * 7) % 13 * 0.1, lambda i=i: fired.append(i))
        sim.run()
        return fired

    assert run_once() == run_once()
