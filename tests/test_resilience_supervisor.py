"""Supervised execution: crash/hang/corruption recovery, byte-identically.

Supervision is the one executor, :class:`~repro.core.parallel.WorkerPool`,
under a :class:`~repro.resilience.RetryPolicy`.  It is exercised both
directly and through the replication scheduler.  The fast inline tests
run in tier-1; everything that injures real worker processes carries the
``faultinject`` marker (deselected by default, run with
``-m faultinject``).  The scheduler-level tests that need real worker
processes pass ``auto_degrade=False``: without a task timeout the cost
model would otherwise run their tiny campaigns inline.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import (
    NetworkParameters,
    ResultCache,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
)
from repro.core.parallel import WorkerPool
from repro.core.simulation import replicate_scenario
from repro.experiments import ReplicationScheduler
from repro.faults import FaultPlan, FaultSpec
from repro.obs.manifest import read_manifests, validate_manifest
from repro.resilience import RetryPolicy


@pytest.fixture
def mini_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        name="sup-mini",
        virus=VirusParameters(
            name="sup-virus", min_send_interval=0.05, extra_send_delay_mean=0.05
        ),
        network=NetworkParameters(population=80, mean_contact_list_size=10.0),
        user=UserParameters(read_delay_mean=0.1),
        duration=6.0,
    )


FAST_POLICY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


def _times(result_set):
    return [r.infection_times for r in result_set.results]


def _run_pool(pool, scenario, count, faults):
    """Drive ``pool`` over ``count`` jobs; infection times by index."""
    jobs = [(index, scenario, 9, index) for index in range(count)]
    return {
        index: result.infection_times
        for index, result in pool.imap_indexed(jobs, faults=faults)
    }


class TestInlineExecutor:
    """``WorkerPool(1, policy)``: retries and backoff without processes."""

    def test_backoff_schedule_delays_the_retry(self, mini_scenario):
        policy = RetryPolicy(
            max_retries=1, backoff_base=0.3, backoff_cap=0.3, jitter=0.0
        )
        start = time.monotonic()
        with WorkerPool(1, policy=policy) as pool:
            got = _run_pool(
                pool, mini_scenario, 1, {0: FaultSpec(raise_attempts=(0,))}
            )
        assert policy.backoff_delay("sup-mini:s9:r0", 1) == pytest.approx(0.3)
        assert time.monotonic() - start >= 0.3
        expected = replicate_scenario(mini_scenario, replications=1, seed=9)
        assert got == {0: expected.results[0].infection_times}
        assert [(e.attempt, e.kind, e.action) for e in pool.report.events] == [
            (0, "error", "retry")
        ]


class TestSerialSupervised:
    """processes=1 supervised dispatch is the plain serial path plus
    bookkeeping — results must be bit-identical, and soft faults must be
    retried in-process."""

    def test_identical_to_unsupervised(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=3, seed=9)
        with ReplicationScheduler(resilience=FAST_POLICY) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=3, seed=9)
        assert _times(got) == _times(expected)
        assert not scheduler.failures

    def test_soft_fault_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=3, seed=9)
        plan = FaultPlan({1: FaultSpec(raise_attempts=(0,))})
        with ReplicationScheduler(
            resilience=FAST_POLICY, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=3, seed=9)
        assert _times(got) == _times(expected)
        assert [(e.kind, e.action) for e in scheduler.failures] == [
            ("error", "retry")
        ]
        assert not scheduler.has_failures

    def test_quarantine_reported_not_raised(self, mini_scenario):
        plan = FaultPlan({2: FaultSpec(raise_attempts=tuple(range(10)))})
        with ReplicationScheduler(
            resilience=FAST_POLICY, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert got.replications == 3  # survivors only
        assert scheduler.has_failures
        assert scheduler.quarantined == [
            {
                "scenario": "sup-mini",
                "seed": 9,
                "replication": 2,
                "failures": FAST_POLICY.max_attempts,
            }
        ]
        summary = scheduler.failure_summary()
        assert summary and "sup-mini" in summary[0]


@pytest.mark.faultinject
class TestFaultInjection:
    """Real worker processes get crashed, hung, and corrupted."""

    def test_hard_crash_detected_and_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        plan = FaultPlan({0: FaultSpec(crash_attempts=(0,))})
        with ReplicationScheduler(
            processes=2, resilience=FAST_POLICY, fault_plan=plan,
            auto_degrade=False,
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert _times(got) == _times(expected)
        kinds = [(e.kind, e.action) for e in scheduler.failures]
        assert ("crash", "retry") in kinds
        assert scheduler.pool_respawns >= 1

    def test_hang_timed_out_and_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.01, backoff_cap=0.05, task_timeout=2.0
        )
        plan = FaultPlan({1: FaultSpec(hang_attempts=(0,), hang_seconds=60.0)})
        # A policy with a task timeout never auto-degrades to inline.
        with ReplicationScheduler(
            processes=2, resilience=policy, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert _times(got) == _times(expected)
        assert ("timeout", "retry") in [
            (e.kind, e.action) for e in scheduler.failures
        ]

    def test_no_zombies_or_fd_leaks_after_repeated_respawns(self, mini_scenario):
        """Shutdown hygiene: 3 forced respawns leak nothing.

        After a campaign whose fault plan hard-crashes three workers
        (three respawn cycles), the parent must be left with zero live
        child processes and the same number of open file descriptors it
        had after a clean warm-up run — a dead worker's Process object
        and its task queue both hold pipe FDs until explicitly closed.
        """
        import multiprocessing
        import os

        def open_fds() -> int:
            fd_dir = "/proc/self/fd"
            if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
                pytest.skip("needs /proc to count file descriptors")
            return len(os.listdir(fd_dir))

        def reap_stragglers() -> None:
            for child in multiprocessing.active_children():
                child.join(timeout=5.0)

        # Warm-up run: pays one-time interpreter costs (resource tracker,
        # mp context) so the baseline FD count is stable.
        with ReplicationScheduler(
            processes=2, resilience=FAST_POLICY, auto_degrade=False
        ) as s:
            s.replicate(mini_scenario, replications=4, seed=9)
        reap_stragglers()
        assert multiprocessing.active_children() == []
        baseline = open_fds()

        plan = FaultPlan(
            {
                0: FaultSpec(crash_attempts=(0,)),
                1: FaultSpec(crash_attempts=(0,)),
                2: FaultSpec(crash_attempts=(0,)),
            }
        )
        with ReplicationScheduler(
            processes=2, resilience=FAST_POLICY, fault_plan=plan,
            auto_degrade=False,
        ) as scheduler:
            scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert scheduler.pool_respawns >= 3
        reap_stragglers()
        assert multiprocessing.active_children() == []
        assert open_fds() <= baseline

    def test_repeated_pool_death_degrades_to_serial(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        policy = RetryPolicy(
            max_retries=4,
            backoff_base=0.005,
            backoff_cap=0.01,
            max_pool_respawns=1,
        )
        always = tuple(range(10))
        plan = FaultPlan(
            {
                0: FaultSpec(crash_attempts=always),
                1: FaultSpec(crash_attempts=always),
            }
        )
        with ReplicationScheduler(
            processes=2, resilience=policy, fault_plan=plan,
            auto_degrade=False,
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert scheduler.degraded_to_serial
        # The poisoned tasks fail in serial soft mode too -> quarantined;
        # the healthy replications still match the reference exactly.
        assert {q["replication"] for q in scheduler.quarantined} == {0, 1}
        expected_times = _times(expected)
        for result in got.results:
            assert result.infection_times == expected_times[result.replication]


@pytest.mark.faultinject
class TestWorkerPoolSupervision:
    """The executor itself, injured directly (no scheduler in between)."""

    def test_crash_detected_and_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        with WorkerPool(2, policy=FAST_POLICY) as pool:
            got = _run_pool(
                pool, mini_scenario, 4, {0: FaultSpec(crash_attempts=(0,))}
            )
        assert got == dict(enumerate(_times(expected)))
        report = pool.report
        assert [(e.task_id, e.kind, e.action) for e in report.events] == [
            (0, "crash", "retry")
        ]
        assert "exited with code 113" in report.events[0].detail
        assert report.respawns == 1

    def test_hang_timed_out(self, mini_scenario):
        policy = RetryPolicy(
            max_retries=1, backoff_base=0.01, backoff_cap=0.05, task_timeout=1.0
        )
        faults = {1: FaultSpec(hang_attempts=(0,), hang_seconds=60.0)}
        start = time.monotonic()
        with WorkerPool(2, policy=policy) as pool:
            got = _run_pool(pool, mini_scenario, 3, faults)
        assert time.monotonic() - start < 30.0
        assert sorted(got) == [0, 1, 2]
        assert [(e.task_id, e.kind, e.action) for e in pool.report.events] == [
            (1, "timeout", "retry")
        ]

    def test_quarantine_reported_not_raised(self, mini_scenario):
        faults = {1: FaultSpec(raise_attempts=tuple(range(10)))}
        with WorkerPool(2, policy=FAST_POLICY) as pool:
            got = _run_pool(pool, mini_scenario, 3, faults)
        assert sorted(got) == [0, 2]
        assert pool.report.quarantined == [1]
        assert [e.action for e in pool.report.events] == [
            "retry", "retry", "quarantine"
        ]

    def test_repeated_death_degrades_to_inline(self, mini_scenario):
        expected = _times(
            replicate_scenario(mini_scenario, replications=4, seed=9)
        )
        policy = RetryPolicy(
            max_retries=4, backoff_base=0.005, backoff_cap=0.01,
            max_pool_respawns=1,
        )
        always = tuple(range(10))
        faults = {0: FaultSpec(crash_attempts=always),
                  1: FaultSpec(crash_attempts=always)}
        with WorkerPool(2, policy=policy) as pool:
            got = _run_pool(pool, mini_scenario, 4, faults)
        report = pool.report
        assert sorted(report.retired) == [0, 1]
        assert report.inline > 0
        assert sorted(report.quarantined) == [0, 1]
        assert got == {2: expected[2], 3: expected[3]}

    def test_dead_worker_charges_only_its_stamped_task(self, mini_scenario):
        """Every task routes to worker 0, so several sit in its queue when
        task 1 kills it: only task 1 is charged, the rest re-queue free."""
        expected = replicate_scenario(mini_scenario, replications=6, seed=9)
        with WorkerPool(
            2, policy=FAST_POLICY, route=lambda job, workers: 0
        ) as pool:
            got = _run_pool(
                pool, mini_scenario, 6, {1: FaultSpec(crash_attempts=(0,))}
            )
        assert got == dict(enumerate(_times(expected)))
        report = pool.report
        assert [(e.task_id, e.kind) for e in report.events] == [(1, "crash")]
        assert report.reassigned > 1
        assert report.respawns == 1


@pytest.mark.faultinject
class TestFig1CampaignUnderFaults:
    """The acceptance campaign: a scaled-down Figure-1 run (all four
    viruses) under >=10% worker crashes, one hang, and one corrupted
    cache entry — byte-identical results, a manifest recording every
    retry, and a resume that re-executes only the lost replication."""

    def test_demo_campaign_self_check_passes(self, tmp_path):
        from repro.faults.__main__ import main as faults_main

        manifest_path = tmp_path / "faults-manifest.jsonl"
        code = faults_main(
            [
                "--manifest", str(manifest_path),
                "--cache-dir", str(tmp_path / "cache"),
                "--population", "100",
                "--duration", "5.0",
                "--task-timeout", "2.0",
            ]
        )
        assert code == 0

        records = read_manifests(manifest_path)
        assert len(records) == 2  # injected phase + resume phase
        for record in records:
            assert validate_manifest(record) == []

        injected, resumed = records
        section = injected["resilience"]
        kinds = {event["kind"] for event in section["events"]}
        assert "crash" in kinds and "timeout" in kinds
        assert section["retries"] == len(
            [e for e in section["events"] if e["action"] == "retry"]
        )
        assert section["retries"] >= 3  # 2 crashes + 1 hang, each retried
        assert section["quarantined"] == 0
        assert section["degraded_to_serial"] is False
        assert section["policy"]["task_timeout"] == 2.0

        # Resume phase: cache hit stats prove only the corrupted entry
        # was re-executed.
        assert resumed["resilience"]["resume"] == {
            "previously_completed": 12,
            "resumed_from_cache": 11,
            "lost_entries": 1,
            "fresh": 0,
        }
        assert resumed["cache"]["hits"] == 11
        assert resumed["scheduler"]["executed"] == 1
