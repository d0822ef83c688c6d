"""Tests for the experiment-level replication scheduler.

Covers the PR's core guarantees: scheduler output is bit-identical to the
serial path (curves, counters, response stats), the cache short-circuits
repeat work and invalidates on config changes, and reassembly restores
job order under arbitrary out-of-order completion.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NetworkParameters,
    ResultCache,
    ScenarioConfig,
    UserEducationConfig,
    UserParameters,
    VirusParameters,
    replicate_scenario,
)
from repro.experiments import (
    ExperimentSpec,
    ReplicationJob,
    ReplicationScheduler,
    SeriesSpec,
    plan_experiment,
    reassemble,
)
from repro.obs.metrics import Metrics


@pytest.fixture
def mini_scenario() -> ScenarioConfig:
    """A very small scenario (~100 ms) for scheduler matrix tests."""
    return ScenarioConfig(
        name="mini",
        virus=VirusParameters(
            name="mini-virus", min_send_interval=0.05, extra_send_delay_mean=0.05
        ),
        network=NetworkParameters(population=80, mean_contact_list_size=10.0),
        user=UserParameters(read_delay_mean=0.1),
        duration=6.0,
    )


@pytest.fixture
def mini_spec(mini_scenario) -> ExperimentSpec:
    """A two-series experiment over the mini scenario."""
    educated = mini_scenario.with_responses(
        UserEducationConfig(acceptance_scale=0.5), suffix="edu"
    )
    return ExperimentSpec(
        experiment_id="mini",
        title="Mini",
        paper_ref="(test)",
        description="scheduler test experiment",
        series=(
            SeriesSpec("baseline", mini_scenario),
            SeriesSpec("educated", educated),
        ),
        checkpoints=(3.0,),
    )


def _assert_sets_identical(actual, expected):
    """Bit-identical comparison of two ReplicationSets."""
    assert [r.replication for r in actual.results] == [
        r.replication for r in expected.results
    ]
    assert [r.infection_times for r in actual.results] == [
        r.infection_times for r in expected.results
    ]
    assert [r.counters for r in actual.results] == [
        r.counters for r in expected.results
    ]
    assert [r.response_stats for r in actual.results] == [
        r.response_stats for r in expected.results
    ]
    assert [r.final_time for r in actual.results] == [
        r.final_time for r in expected.results
    ]
    assert [r.patient_zero for r in actual.results] == [
        r.patient_zero for r in expected.results
    ]
    for a_curve, e_curve in zip(actual.curves(), expected.curves()):
        assert a_curve.times.tolist() == e_curve.times.tolist()
        assert a_curve.values.tolist() == e_curve.values.tolist()


class TestBitIdentity:
    def test_serial_scheduler_matches_reference(self, mini_spec):
        expected = {
            series.label: replicate_scenario(series.scenario, replications=2, seed=11)
            for series in mini_spec.series
        }
        with ReplicationScheduler() as scheduler:
            result = scheduler.run_experiment(mini_spec, replications=2, seed=11)
        for label, expected_set in expected.items():
            _assert_sets_identical(result.series_results[label], expected_set)

    def test_parallel_scheduler_matches_reference(self, mini_spec):
        expected = {
            series.label: replicate_scenario(series.scenario, replications=2, seed=11)
            for series in mini_spec.series
        }
        with ReplicationScheduler(processes=2) as scheduler:
            result = scheduler.run_experiment(mini_spec, replications=2, seed=11)
        for label, expected_set in expected.items():
            _assert_sets_identical(result.series_results[label], expected_set)

    def test_cached_rerun_matches_reference(self, mini_spec, tmp_path):
        with ReplicationScheduler() as scheduler:
            expected = scheduler.run_experiment(mini_spec, replications=2, seed=11)
        with ReplicationScheduler(cache=ResultCache(tmp_path / "cache")) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=11)
        with ReplicationScheduler(cache=ResultCache(tmp_path / "cache")) as scheduler:
            cached = scheduler.run_experiment(mini_spec, replications=2, seed=11)
        for label in expected.series_results:
            _assert_sets_identical(
                cached.series_results[label], expected.series_results[label]
            )


class TestCacheIntegration:
    def test_second_run_does_zero_simulation(self, mini_spec, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with ReplicationScheduler(processes=1, cache=cache) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=3)
            assert scheduler.stats.executed == 4
            assert scheduler.stats.cache_hits == 0
        with ReplicationScheduler(
            processes=1, cache=ResultCache(tmp_path / "cache")
        ) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=3)
            assert scheduler.stats.executed == 0
            assert scheduler.stats.cache_hits == 4

    def test_config_change_invalidates(self, mini_scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with ReplicationScheduler(processes=1, cache=cache) as scheduler:
            scheduler.replicate(mini_scenario, replications=1, seed=3)
        changed = dataclasses.replace(mini_scenario, duration=7.0)
        with ReplicationScheduler(
            processes=1, cache=ResultCache(tmp_path / "cache")
        ) as scheduler:
            scheduler.replicate(changed, replications=1, seed=3)
            assert scheduler.stats.executed == 1
            assert scheduler.stats.cache_hits == 0

    def test_seed_change_invalidates(self, mini_scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with ReplicationScheduler(processes=1, cache=cache) as scheduler:
            scheduler.replicate(mini_scenario, replications=1, seed=3)
            scheduler.replicate(mini_scenario, replications=1, seed=4)
            assert scheduler.stats.executed == 2

    def test_extra_replications_partial_hit(self, mini_scenario, tmp_path):
        with ReplicationScheduler(
            processes=1, cache=ResultCache(tmp_path / "cache")
        ) as scheduler:
            scheduler.replicate(mini_scenario, replications=2, seed=3)
        with ReplicationScheduler(
            processes=1, cache=ResultCache(tmp_path / "cache")
        ) as scheduler:
            scheduler.replicate(mini_scenario, replications=4, seed=3)
            assert scheduler.stats.cache_hits == 2
            assert scheduler.stats.executed == 2


class TestBatch:
    def test_batch_matches_individual_runs(self, mini_spec, mini_scenario):
        other = ExperimentSpec(
            experiment_id="mini2",
            title="Mini 2",
            paper_ref="(test)",
            description="second batch spec",
            series=(SeriesSpec("solo", mini_scenario),),
        )
        with ReplicationScheduler() as scheduler:
            individual = [
                scheduler.run_experiment(mini_spec, replications=1, seed=5),
                scheduler.run_experiment(other, replications=1, seed=5),
            ]
        with ReplicationScheduler(metrics=Metrics(enabled=True)) as scheduler:
            batched = scheduler.run_batch([mini_spec, other], replications=1, seed=5)
            # Both plans run as one batch (one run_jobs call), and the
            # "solo" series, which is mini's baseline, is scheduled once.
            assert scheduler.telemetry()["scheduler"]["batches"] == 1
            assert scheduler.stats.scheduled == 2
        assert len(batched) == 2
        for one, many in zip(individual, batched):
            assert one.spec.experiment_id == many.spec.experiment_id
            for label in one.series_results:
                _assert_sets_identical(
                    many.series_results[label], one.series_results[label]
                )

    def test_batch_runs_each_job_shared_across_specs_once(self, mini_spec):
        """Two specs sharing a series: each distinct job key executes once
        and both specs get the same per-series results as solo runs."""
        shared = ExperimentSpec(
            experiment_id="mini-shared",
            title="Mini shared",
            paper_ref="(test)",
            description="reuses mini's educated series",
            series=(SeriesSpec("educated-again", mini_spec.series[1].scenario),),
        )
        specs = [mini_spec, shared]
        keys = {
            key
            for spec in specs
            for key in plan_experiment(spec, replications=2, seed=3).job_keys()
        }
        assert len(keys) == 4
        with ReplicationScheduler() as scheduler:
            batched = scheduler.run_batch(specs, replications=2, seed=3)
            assert scheduler.stats.executed == len(keys)
        for spec, many in zip(specs, batched):
            with ReplicationScheduler() as scheduler:
                solo = scheduler.run_experiment(spec, replications=2, seed=3)
            assert list(many.series_results) == list(solo.series_results)
            for label, expected in solo.series_results.items():
                _assert_sets_identical(many.series_results[label], expected)

    def test_plan_order(self, mini_spec):
        jobs = plan_experiment(mini_spec, replications=3, seed=9).jobs
        assert len(jobs) == 6
        assert [j.replication for j in jobs] == [0, 1, 2, 0, 1, 2]
        assert jobs[0].config == mini_spec.series[0].scenario
        assert jobs[3].config == mini_spec.series[1].scenario
        assert all(j.seed == 9 for j in jobs)

    def test_plan_validates_replications(self, mini_spec):
        with pytest.raises(ValueError):
            plan_experiment(mini_spec, replications=0)

    def test_run_batch_rejects_zero_replications_before_dispatch(self, mini_spec):
        with ReplicationScheduler() as scheduler:
            with pytest.raises(ValueError, match="replications must be >= 1"):
                scheduler.run_batch([mini_spec], replications=0)
            assert scheduler.stats.scheduled == 0

    def test_replicate_rejects_zero_replications_before_dispatch(
        self, mini_scenario
    ):
        with ReplicationScheduler() as scheduler:
            with pytest.raises(ValueError, match="replications must be >= 1"):
                scheduler.replicate(mini_scenario, replications=0)
            assert scheduler.stats.scheduled == 0


class TestReassembly:
    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(12))))
    def test_out_of_order_completion_preserves_order(self, order):
        completions = [(index, f"result-{index}") for index in order]
        assert reassemble(12, completions) == [f"result-{i}" for i in range(12)]

    def test_missing_completion_raises(self):
        with pytest.raises(ValueError, match="missing"):
            reassemble(3, [(0, "a"), (2, "c")])

    def test_duplicate_completion_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            reassemble(2, [(0, "a"), (0, "b")])

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            reassemble(2, [(5, "a")])


class TestValidation:
    def test_processes_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplicationScheduler(processes=0)

    def test_run_jobs_empty(self):
        with ReplicationScheduler() as scheduler:
            assert scheduler.run_jobs([]) == []

    def test_replication_job_is_frozen(self, mini_scenario):
        job = ReplicationJob(config=mini_scenario, seed=0, replication=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.seed = 1


class TestTelemetry:
    """Scheduler-level run telemetry and manifest emission."""

    def test_disabled_by_default(self, mini_spec):
        with ReplicationScheduler(processes=1) as scheduler:
            scheduler.run_experiment(mini_spec, replications=1, seed=0)
            tele = scheduler.telemetry()
        assert tele["workers"] == []
        assert tele["events_executed"] == 0

    def test_telemetry_aggregates_serial_run(self, mini_spec, tmp_path):
        cache = ResultCache(tmp_path / "c")
        metrics = Metrics(enabled=True)
        with ReplicationScheduler(
            processes=1, cache=cache, metrics=metrics
        ) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=1)
            tele = scheduler.telemetry()
        assert tele["scheduler"]["scheduled"] == 4  # 2 series x 2 replications
        assert tele["scheduler"]["executed"] == 4
        assert tele["scheduler"]["cache_hits"] == 0
        assert tele["events_executed"] > 0
        assert tele["events_per_second"] > 0
        assert tele["wall_seconds"] > 0
        # Serial execution still reports one (inline) worker row.
        assert len(tele["workers"]) == 1
        worker = tele["workers"][0]
        assert worker["jobs"] == 4
        assert worker["events"] == tele["events_executed"]
        assert worker["events_per_second"] > 0
        assert tele["kernel"]["events_fired"] == tele["events_executed"]
        assert tele["kernel"]["heap_peak"] > 0
        assert tele["cache"]["hit_ratio"] == 0.0
        import os

        assert os.path.isabs(tele["cache"]["dir"])

    def test_cache_hits_reflected_in_telemetry(self, mini_spec, tmp_path):
        with ReplicationScheduler(
            processes=1,
            cache=ResultCache(tmp_path / "c"),
            metrics=Metrics(enabled=True),
        ) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=1)
        # Fresh cache handle over the same directory: its hit/miss counters
        # cover only the second run, so every lookup is a hit.
        with ReplicationScheduler(
            processes=1,
            cache=ResultCache(tmp_path / "c"),
            metrics=Metrics(enabled=True),
        ) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=1)
            tele = scheduler.telemetry()
        assert tele["scheduler"]["cache_hits"] == 4
        assert tele["scheduler"]["executed"] == 0
        assert tele["cache"]["hit_ratio"] == 1.0
        assert tele["events_executed"] == 0

    def test_results_identical_with_telemetry_enabled(self, mini_spec):
        with ReplicationScheduler() as scheduler:
            plain = scheduler.run_experiment(mini_spec, replications=2, seed=6)
        with ReplicationScheduler(
            processes=1, metrics=Metrics(enabled=True)
        ) as scheduler:
            instrumented = scheduler.run_experiment(
                mini_spec, replications=2, seed=6
            )
        for label, expected_set in plain.series_results.items():
            _assert_sets_identical(
                instrumented.series_results[label], expected_set
            )

    def test_write_manifest_schema_valid(self, mini_spec, tmp_path):
        from repro.obs.manifest import read_manifests, validate_manifest
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "run.jsonl"
        with ReplicationScheduler(
            processes=1, cache=cache, metrics=Metrics(enabled=True)
        ) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=2)
            scheduler.write_manifest(path, label="test-run")
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["kind"] == "run"
        assert record["label"] == "test-run"
        assert record["replications"] == 4
        assert record["seeds"] == [2]
        scenario_names = {s["name"] for s in record["scenarios"]}
        assert scenario_names == {"mini", "mini+edu"}
        assert all(len(s["hash"]) == 64 for s in record["scenarios"])
        assert record["workers"][0]["jobs"] == 4
        assert record["cache"]["hit_ratio"] == 0.0


class _InterruptingPool:
    """Stub pool whose dispatch raises KeyboardInterrupt mid-campaign."""

    def __init__(self):
        self.terminated = False
        self.closed = False

    def imap_indexed(self, jobs, job_count=None):
        raise KeyboardInterrupt

    def close(self):
        self.closed = True

    def terminate(self):
        self.terminated = True


class TestInterruptCleanup:
    """Regression: a Ctrl-C mid-campaign used to leak the worker pool and
    leave ``.tmp-*.json`` orphans from interrupted atomic cache writes;
    the scheduler's exceptional exit must terminate the pool, sweep the
    orphans, and flush the checkpoint."""

    def test_interrupt_terminates_pool_and_sweeps_orphans(
        self, mini_scenario, tmp_path
    ):
        from repro.resilience import CampaignCheckpoint, load_checkpoint

        cache = ResultCache(tmp_path / "c")
        shard = cache.root / "ab"
        shard.mkdir(parents=True)
        orphan = shard / ".tmp-interrupted0.json"
        orphan.write_text("{partial")
        checkpoint_path = tmp_path / "ck.json"
        pool = _InterruptingPool()
        with pytest.raises(KeyboardInterrupt):
            with ReplicationScheduler(
                processes=2,
                cache=cache,
                pool=pool,
                checkpoint=CampaignCheckpoint(checkpoint_path, label="int"),
            ) as scheduler:
                scheduler.replicate(mini_scenario, replications=2, seed=0)
        assert pool.terminated  # no leaked workers
        assert not orphan.exists()  # tmp orphans swept
        assert load_checkpoint(checkpoint_path) is not None  # progress saved

    def test_clean_exit_does_not_terminate_external_pool(
        self, mini_scenario, tmp_path
    ):
        pool = _InterruptingPool()
        with ReplicationScheduler(processes=2, cache=None, pool=pool):
            pass  # no work dispatched
        assert not pool.terminated
        assert not pool.closed  # externally owned: left running


class TestAutoDegrade:
    """Dispatch planning: small campaigns must not pay for a pool.

    The cost model (pool startup + per-chunk dispatch vs. perfect work
    division) projects a tiny 4-job campaign as losing to serial on any
    machine — 4 x 0.05 s of work never amortises a 0.25 s pool spin-up —
    so ``--processes 4`` on a tiny grid degrades to inline execution,
    logs the decision, and stays bit-identical to the serial path.
    """

    def test_small_campaign_degrades_to_serial_and_logs(self, mini_spec):
        with ReplicationScheduler(processes=4) as scheduler:
            scheduler.run_experiment(mini_spec, replications=2, seed=11)
            decisions = list(scheduler.dispatch_decisions)
        assert decisions, "planned batch must log a dispatch decision"
        decision = decisions[0]
        assert decision["mode"] == "serial"
        assert decision["auto_degrade"] is True
        assert decision["projected_speedup"] < 1.0
        assert decision["requested_processes"] == 4
        assert decision["pending"] == 4  # 2 series x 2 replications
        assert decision["estimate_source"] == "default"

    @pytest.mark.parametrize("auto_degrade", [True, False])
    def test_forced_processes_bit_identical_to_serial(
        self, mini_spec, auto_degrade
    ):
        with ReplicationScheduler() as scheduler:
            expected = scheduler.run_experiment(mini_spec, replications=2, seed=11)
        with ReplicationScheduler(
            processes=4, auto_degrade=auto_degrade
        ) as scheduler:
            forced = scheduler.run_experiment(mini_spec, replications=2, seed=11)
        for label in expected.series_results:
            _assert_sets_identical(
                forced.series_results[label], expected.series_results[label]
            )

    def test_disabled_auto_degrade_keeps_pool(self, mini_spec):
        with ReplicationScheduler(processes=4, auto_degrade=False) as scheduler:
            scheduler.run_experiment(mini_spec, replications=1, seed=3)
            decisions = list(scheduler.dispatch_decisions)
        assert decisions
        assert decisions[0]["mode"] == "parallel"
        assert decisions[0]["auto_degrade"] is False

    def test_decisions_surface_in_telemetry(self, mini_spec):
        with ReplicationScheduler(processes=4) as scheduler:
            scheduler.run_experiment(mini_spec, replications=1, seed=3)
            tele = scheduler.telemetry()
        assert tele["scheduler"]["auto_degrade"] is True
        assert tele["scheduler"]["dispatch_decisions"] == (
            scheduler.dispatch_decisions
        )

    def test_serial_and_external_pools_skip_planning(self, mini_spec):
        with ReplicationScheduler(processes=1) as scheduler:
            scheduler.run_experiment(mini_spec, replications=1, seed=3)
            assert scheduler.dispatch_decisions == []


class TestFullyCachedBatch:
    """A batch whose every job is a cache hit must never start a pool.

    This is the frontier re-run case: a repeated bisection resolves all
    of its probes from the result cache, so paying pool spin-up (or even
    running the cost model) would be pure waste.  The decision trail
    still records one ``cached`` entry per batch so the manifest shows
    why no workers ran.
    """

    def test_cached_rerun_never_starts_pool(
        self, mini_scenario, tmp_path, monkeypatch
    ):
        from repro.core import parallel as parallel_module

        cache = ResultCache(tmp_path / "cache")
        with ReplicationScheduler(processes=1, cache=cache) as scheduler:
            scheduler.replicate(mini_scenario, replications=3, seed=5)

        def _no_pool(self):
            raise AssertionError("pool started on a fully cached batch")

        monkeypatch.setattr(
            parallel_module.WorkerPool, "_ensure_pool", _no_pool
        )
        with ReplicationScheduler(
            processes=4, cache=cache, auto_degrade=False
        ) as scheduler:
            scheduler.replicate(mini_scenario, replications=3, seed=5)
            assert scheduler.stats.cache_hits == 3
            assert scheduler.stats.executed == 0
            decisions = list(scheduler.dispatch_decisions)
        assert decisions, "the cached batch must still log its decision"
        decision = decisions[-1]
        assert decision["mode"] == "cached"
        assert decision["pending"] == 0
        assert decision["effective_workers"] == 0
        assert decision["projected_speedup"] is None

    def test_partial_cache_hit_still_dispatches(self, mini_scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with ReplicationScheduler(processes=1, cache=cache) as scheduler:
            scheduler.replicate(mini_scenario, replications=2, seed=5)
        with ReplicationScheduler(processes=4, cache=cache) as scheduler:
            scheduler.replicate(mini_scenario, replications=4, seed=5)
            assert scheduler.stats.cache_hits == 2
            assert scheduler.stats.executed == 2
            decisions = list(scheduler.dispatch_decisions)
        assert decisions[-1]["mode"] in ("serial", "parallel")
        assert decisions[-1]["pending"] == 2

    def test_empty_pool_batch_returns_without_start(self):
        from repro.core.parallel import WorkerPool

        pool = WorkerPool(4)
        try:
            assert list(pool.imap_indexed([], job_count=0)) == []
            assert not pool.started
        finally:
            pool.close()
