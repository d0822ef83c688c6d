"""Guards for the disabled-telemetry fast path.

The perf claim behind the pre-bound run kernels is not "telemetry off is
cheap" but "telemetry off is *zero* registry traffic": with metrics and
tracing disabled the simulator must select the plain loop kernel once per
run and never touch the :class:`~repro.obs.metrics.Metrics` registry
again — not even enabled-check no-op calls.  A counting stub makes that
claim a test instead of an eyeball estimate.  The xl engine makes the
same promise for its round loop: without ``time_events`` it never reads
the clock or the registry.
"""

from __future__ import annotations

from repro.core.model import PhoneNetworkModel
from repro.core.scenarios import baseline_scenario
from repro.des.random import StreamFactory
from repro.obs.metrics import Metrics
from repro.xl.engine import XLEngine
from repro.xl.presets import xl_scenario


class CountingMetrics(Metrics):
    """Disabled registry that records every call into it."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self.calls = 0

    def counter(self, name):
        self.calls += 1
        return super().counter(name)

    def gauge(self, name):
        self.calls += 1
        return super().gauge(name)

    def timer(self, name):
        self.calls += 1
        return super().timer(name)

    def inc(self, name, amount=1):
        self.calls += 1
        super().inc(name, amount)

    def set_gauge(self, name, value):
        self.calls += 1
        super().set_gauge(name, value)

    def gauge_max(self, name, value):
        self.calls += 1
        super().gauge_max(name, value)

    def observe(self, name, seconds):
        self.calls += 1
        super().observe(name, seconds)


class TestDisabledTelemetryZeroCost:
    def test_obs_off_fig1_run_makes_zero_registry_calls(self):
        # Same scenario family as the fig1-v1 bench workload, shortened
        # so the test stays fast; the code path is identical.
        config = baseline_scenario(1, duration=48.0)
        registry = CountingMetrics()
        model = PhoneNetworkModel(
            config, StreamFactory(0).replication(0), metrics=registry
        )
        model.seed_infection()
        model.sim.run(until=config.duration)

        assert model.sim.events_fired > 100  # the run actually ran
        assert registry.calls == 0
        assert len(registry) == 0  # no instruments lazily materialised

    def test_enabled_registry_still_records(self):
        # Control: the same run with telemetry on goes through the
        # instrumented kernel and does hit the registry.
        config = baseline_scenario(1, duration=48.0)
        registry = CountingMetrics()
        registry.enabled = True
        model = PhoneNetworkModel(
            config, StreamFactory(0).replication(0), metrics=registry
        )
        model.seed_infection()
        model.sim.run(until=config.duration)

        assert registry.calls > 0
        assert registry.counter_value("des.events_fired") == model.sim.events_fired

    def test_obs_off_xl_run_makes_zero_registry_calls(self):
        config = xl_scenario(3, "paper", duration=24.0)
        registry = CountingMetrics()
        engine = XLEngine(
            config, StreamFactory(0).replication(0), metrics=registry
        )
        engine.seed_infection()
        engine.run()

        assert engine.counters["events_fired"] > 100
        assert registry.calls == 0
        assert len(registry) == 0
