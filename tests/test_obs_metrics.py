"""Tests for the metrics registry and its DES-kernel integration."""

from __future__ import annotations

import json
import time

import pytest

from repro.des.simulator import Simulator
from repro.obs.metrics import NULL_METRICS, Counter, Gauge, Metrics, Timer


class TestInstruments:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_and_max(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set_max(1.0)
        assert gauge.value == 3.0
        gauge.set_max(7.5)
        assert gauge.value == 7.5
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_timer_moments(self):
        timer = Timer()
        for seconds in (0.2, 0.1, 0.4):
            timer.observe(seconds)
        assert timer.count == 3
        assert timer.total == pytest.approx(0.7)
        assert timer.min == pytest.approx(0.1)
        assert timer.max == pytest.approx(0.4)
        assert timer.mean == pytest.approx(0.7 / 3)

    def test_timer_empty_mean(self):
        assert Timer().mean == 0.0


class TestRegistry:
    def test_record_methods(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.inc("a", 2)
        metrics.set_gauge("g", 4.0)
        metrics.gauge_max("g", 9.0)
        metrics.observe("t", 0.25)
        assert metrics.counter_value("a") == 3
        assert metrics.gauge_value("g") == 9.0
        assert metrics.timer("t").count == 1

    def test_instruments_created_once(self):
        metrics = Metrics()
        assert metrics.counter("x") is metrics.counter("x")
        assert metrics.timer("y") is metrics.timer("y")
        assert metrics.gauge("z") is metrics.gauge("z")

    def test_unknown_names_read_as_zero(self):
        metrics = Metrics()
        assert metrics.counter_value("nope") == 0
        assert metrics.gauge_value("nope") == 0.0

    def test_clear(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.observe("t", 1.0)
        metrics.clear()
        assert len(metrics) == 0


class TestDisabledPath:
    def test_disabled_records_nothing(self):
        metrics = Metrics(enabled=False)
        metrics.inc("a", 5)
        metrics.set_gauge("g", 1.0)
        metrics.gauge_max("g", 2.0)
        metrics.observe("t", 0.5)
        assert len(metrics) == 0
        assert metrics.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}

    def test_time_events_requires_enabled(self):
        assert Metrics(enabled=False, time_events=True).time_events is False
        assert Metrics(enabled=True, time_events=True).time_events is True

    def test_null_metrics_is_disabled(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.inc("leak")
        assert len(NULL_METRICS) == 0

    def test_disabled_overhead_is_small(self):
        """The disabled path must not cost more than the enabled path.

        Best-of-5 timings with a generous factor keep this robust on
        noisy CI machines while still catching a disabled path that
        accidentally started doing real work.
        """
        iterations = 20_000

        def best_of(metrics: Metrics) -> float:
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(iterations):
                    metrics.inc("c")
                    metrics.observe("t", 0.0)
                best = min(best, time.perf_counter() - start)
            return best

        enabled = best_of(Metrics(enabled=True))
        disabled = best_of(Metrics(enabled=False))
        assert disabled <= enabled * 1.5


class TestSnapshotMerge:
    def test_snapshot_round_trips_through_json(self):
        metrics = Metrics()
        metrics.inc("jobs", 3)
        metrics.gauge_max("peak", 11.0)
        metrics.observe("wall", 0.5)
        restored = json.loads(json.dumps(metrics.snapshot()))
        target = Metrics()
        target.merge(restored)
        assert target.counter_value("jobs") == 3
        assert target.gauge_value("peak") == 11.0
        assert target.timer("wall").count == 1

    def test_merge_aggregates(self):
        a, b = Metrics(), Metrics()
        a.inc("n", 2)
        b.inc("n", 5)
        a.gauge_max("peak", 10.0)
        b.gauge_max("peak", 4.0)
        a.observe("t", 0.1)
        a.observe("t", 0.3)
        b.observe("t", 0.2)
        a.merge(b.snapshot())
        assert a.counter_value("n") == 7
        assert a.gauge_value("peak") == 10.0  # max, not sum
        timer = a.timer("t")
        assert timer.count == 3
        assert timer.total == pytest.approx(0.6)
        assert timer.min == pytest.approx(0.1)
        assert timer.max == pytest.approx(0.3)

    def test_merge_empty_timer_snapshot_keeps_min_sane(self):
        target = Metrics()
        source = Metrics()
        source.timer("t")  # created but never observed
        target.merge(source.snapshot())
        assert target.timer("t").count == 0
        target.observe("t", 0.5)
        assert target.timer("t").min == pytest.approx(0.5)


class TestKernelIntegration:
    def test_run_reports_kernel_telemetry(self):
        metrics = Metrics(enabled=True)
        sim = Simulator(metrics=metrics)
        fired = []
        for i in range(5):
            sim.schedule(float(i), lambda i=i: fired.append(i), label="tick")
        handle = sim.schedule(2.5, lambda: fired.append(-1), label="doomed")
        handle.cancel()
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert metrics.counter_value("des.events_fired") == 5
        assert metrics.counter_value("des.events_cancelled") == 1
        assert metrics.counter_value("des.runs") == 1
        assert metrics.gauge_value("des.heap_peak") >= 5
        assert metrics.timer("des.run_seconds").count == 1

    def test_time_events_produces_per_label_timers(self):
        metrics = Metrics(enabled=True, time_events=True)
        sim = Simulator(metrics=metrics)
        sim.schedule(0.0, lambda: None, label="alpha")
        sim.schedule(1.0, lambda: None, label="alpha")
        sim.schedule(2.0, lambda: None)  # unlabeled
        sim.run()
        assert metrics.timer("event.alpha").count == 2
        assert metrics.timer("event.unlabeled").count == 1

    def test_disabled_metrics_leaves_kernel_untouched(self):
        sim = Simulator()  # NULL_METRICS by default
        sim.schedule(0.0, lambda: None, label="tick")
        sim.run()
        assert sim.metrics is NULL_METRICS
        assert len(NULL_METRICS) == 0

    def test_kernel_stats(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        assert sim.events_fired == 1
        assert sim.pending_events == 1
        # Lifetime totals reach the registry on the next instrumented run,
        # including the cancellation made before any run.
        metrics = Metrics(enabled=True)
        sim.metrics = metrics
        sim.run()
        assert sim.events_fired == 2
        assert sim.pending_events == 0
        assert metrics.counter_value("des.events_fired") == 1
        assert metrics.counter_value("des.events_cancelled") == 1
        assert metrics.gauge_value("des.heap_peak") >= 3
