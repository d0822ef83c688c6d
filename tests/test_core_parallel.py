"""Tests for the parallel replication executor and its scheduler front end."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core import parallel
from repro.core.parallel import (
    START_METHOD_ENV,
    WorkerPool,
    default_process_count,
)
from repro.core.serialization import result_to_dict
from repro.core.simulation import replicate_scenario
from repro.experiments.scheduler import ReplicationScheduler, telemetry_runner
from repro.xl.presets import xl_scenario


def _scheduled(config, replications, seed, processes):
    """Replicate through the scheduler's pool (no cache, no auto-degrade)."""
    with ReplicationScheduler(processes=processes, auto_degrade=False) as scheduler:
        return scheduler.replicate(config, replications=replications, seed=seed)


def test_serial_fallback_matches_reference(small_scenario):
    serial = replicate_scenario(small_scenario, replications=2, seed=9)
    fallback = _scheduled(small_scenario, replications=2, seed=9, processes=1)
    assert fallback.final_infected() == serial.final_infected()
    assert [r.infection_times for r in fallback.results] == [
        r.infection_times for r in serial.results
    ]


def test_parallel_matches_serial(small_scenario):
    serial = replicate_scenario(small_scenario, replications=3, seed=4)
    parallel = _scheduled(small_scenario, replications=3, seed=4, processes=2)
    assert parallel.final_infected() == serial.final_infected()
    assert parallel.replications == 3
    # Replication indices preserved in order.
    assert [r.replication for r in parallel.results] == [0, 1, 2]


def test_default_process_count_positive():
    assert default_process_count() >= 1


def test_validation(small_scenario):
    with pytest.raises(ValueError):
        _scheduled(small_scenario, replications=0, seed=0, processes=2)
    with pytest.raises(ValueError):
        _scheduled(small_scenario, replications=2, seed=0, processes=0)


def _slow_marker_job(job):
    """Substitute worker: records completion on disk (directory via env)."""
    index = job[0]
    time.sleep(0.05)
    marker_dir = os.environ["REPRO_TEST_MARKER_DIR"]
    with open(os.path.join(marker_dir, f"done-{index}"), "w") as handle:
        handle.write(str(index))
    return index, None


def test_close_drains_dispatched_jobs(small_scenario, tmp_path, monkeypatch):
    """Regression: ``close()`` must let already-dispatched jobs finish.

    The pool used to call ``Pool.terminate()`` on clean shutdown, which
    kills workers mid-chunk — jobs that had been handed out but not yet
    yielded were silently dropped.  This dispatches slow jobs that leave
    marker files, consumes only the first completion, closes the pool,
    and requires every job to have completed.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method required to inherit the patched worker")
    monkeypatch.setenv(START_METHOD_ENV, "fork")
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
    monkeypatch.setattr(parallel, "_run_indexed", _slow_marker_job)

    job_count = 6
    jobs = ((index, small_scenario, 0, index) for index in range(job_count))
    pool = WorkerPool(processes=2)
    try:
        completions = pool.imap_indexed(jobs, job_count=job_count)
        next(completions)  # dispatch has started; rest remain in flight
    finally:
        pool.close()
    done = sorted(int(p.name.split("-")[1]) for p in tmp_path.glob("done-*"))
    assert done == list(range(job_count))


def test_exception_exit_terminates_without_draining(small_scenario):
    """The context manager still tears down hard on exception paths."""
    with pytest.raises(RuntimeError, match="boom"):
        with WorkerPool(processes=2) as pool:
            raise RuntimeError("boom")
    assert not pool.started


def _exit_on_index_two(job):
    """Substitute worker: the job at index 2 hard-crashes its process."""
    if job[0] == 2:
        os._exit(13)
    return job[0], None


def _crash_body(small_scenario, outcome):
    """Child-process body of the fail-fast regression test."""
    os.environ[START_METHOD_ENV] = "fork"
    parallel._run_indexed = _exit_on_index_two
    jobs = [(index, small_scenario, 0, index) for index in range(4)]
    try:
        with WorkerPool(processes=2) as pool:
            list(pool.imap_indexed(iter(jobs), job_count=4))
    except parallel.WorkerError as exc:
        outcome.put(str(exc))
    else:
        outcome.put("no error raised")


def test_dead_worker_fails_fast_instead_of_hanging(small_scenario):
    """Regression: a worker killed mid-task used to hang ``imap_indexed``.

    Without a retry policy the pool must notice the dead worker, tear
    down the rest and raise an error naming the task and the exit code.
    The body runs in a child process with a deadline, so a hang fails
    this test instead of hanging the suite.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method required to inherit the patched worker")
    ctx = multiprocessing.get_context("fork")
    outcome = ctx.Queue()
    child = ctx.Process(target=_crash_body, args=(small_scenario, outcome))
    child.start()
    child.join(timeout=30.0)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "imap_indexed hung on a dead worker"
    message = outcome.get(timeout=5.0)
    assert "small-test:s0:r2" in message
    assert "exited with code 13" in message


class TestTimedDispatch:
    """The telemetry sidecar rides the pool's ``runner`` hook."""

    def test_serial_sidecars(self, small_scenario):
        jobs = [(i, small_scenario, 3, i) for i in range(2)]
        with WorkerPool(processes=1, runner=telemetry_runner) as pool:
            completions = list(pool.imap_indexed(iter(jobs), job_count=2))
        assert sorted(c[0] for c in completions) == [0, 1]
        for _, result, sidecar in completions:
            assert sidecar["pid"] == os.getpid()
            assert sidecar["wall_seconds"] > 0
            counters = sidecar["metrics"]["counters"]
            assert counters["des.events_fired"] == result.counters["events_fired"]

    def test_results_identical_to_untimed(self, small_scenario):
        xl_config = xl_scenario(3, "paper", duration=12.0)
        for config in (small_scenario, xl_config):
            jobs = [(i, config, 7, i) for i in range(3)]
            with WorkerPool(processes=1) as pool:
                untimed = dict(pool.imap_indexed(iter(jobs), job_count=3))
            with WorkerPool(processes=2, runner=telemetry_runner) as pool:
                timed = {
                    index: result
                    for index, result, _ in pool.imap_indexed(
                        iter(jobs), job_count=3
                    )
                }
            assert set(timed) == set(untimed)
            for index in untimed:
                assert result_to_dict(timed[index]) == result_to_dict(
                    untimed[index]
                ), config.name

    def test_parallel_sidecars_report_worker_pids(self, small_scenario):
        jobs = [(i, small_scenario, 1, i) for i in range(3)]
        with WorkerPool(processes=2, runner=telemetry_runner) as pool:
            sidecars = [
                sidecar
                for _, _, sidecar in pool.imap_indexed(
                    iter(jobs), job_count=3
                )
            ]
        assert len(sidecars) == 3
        assert all(sidecar["pid"] != os.getpid() for sidecar in sidecars)
