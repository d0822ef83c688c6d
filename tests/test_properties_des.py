"""Property-based tests for the DES kernel (hypothesis)."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.des.queue import EventQueue

delays = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@given(st.lists(delays, min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    st.lists(
        st.tuples(delays, st.booleans()),  # (delay, cancel?)
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_cancelled_events_never_fire_and_others_all_do(entries):
    sim = Simulator()
    fired = []
    expected = 0
    for index, (delay, cancel) in enumerate(entries):
        handle = sim.schedule(delay, lambda index=index: fired.append(index))
        if cancel:
            handle.cancel()
        else:
            expected += 1
    sim.run()
    assert len(fired) == expected
    cancelled_indices = {i for i, (_, c) in enumerate(entries) if c}
    assert cancelled_indices.isdisjoint(fired)


@given(st.lists(st.sampled_from([0.0, 1.0, 2.5]) | delays, min_size=2, max_size=100))
@settings(max_examples=50, deadline=None)
def test_queue_pop_respects_time_priority_sequence_key(times):
    queue = EventQueue()
    for time in times:
        queue.push_event(time, lambda: None)
    popped = []
    while len(queue):
        event, _ = queue.pop_due(math.inf)
        popped.append((event.time, event.seq))
    assert popped == sorted(popped)
    assert sorted(seq for _, seq in popped) == list(range(len(times)))


@given(st.lists(delays, min_size=1, max_size=100), st.floats(0.0, 1000.0))
@settings(max_examples=50, deadline=None)
def test_run_until_never_passes_horizon(times, horizon):
    sim = Simulator()
    for t in times:
        sim.schedule(t, lambda: None)
    end = sim.run(until=horizon)
    assert end == horizon
    assert sim.now <= horizon


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_interleaved_schedule_cancel_pop_consistency(data):
    queue = EventQueue()
    live = {}
    counter = 0
    operations = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=300))
    for op in operations:
        if op == 0:  # push
            t = data.draw(delays)
            event = queue.push_event(t, lambda: None, label=str(counter))
            live[counter] = (t, event)
            counter += 1
        elif op == 1 and live:  # cancel an arbitrary live event
            key = data.draw(st.sampled_from(sorted(live)))
            _, event = live.pop(key)
            assert event.cancel()
        elif op == 2:  # pop
            event, _ = queue.pop_due(math.inf)
            if event is not None:
                live.pop(int(event.label), None)
    # Every remaining live event pops exactly once, in order.
    remaining_times = sorted(t for t, _ in live.values())
    assert len(queue) == len(live)
    popped_times = []
    while len(queue):
        popped_times.append(queue.pop_due(math.inf)[0].time)
    assert popped_times == remaining_times
    assert queue.pop_due(math.inf) == (None, None)
