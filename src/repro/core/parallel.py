"""Parallel replication execution: the one supervised executor.

Replications are embarrassingly parallel — each derives its own RNG
streams from ``(seed, index)`` — so a process pool gives near-linear
speedups for the full-scale figure experiments.  The worker function is a
module-level callable taking only picklable arguments (the scenario
dataclasses are plain frozen dataclasses, so they pickle cleanly), which
makes every start method — including ``spawn`` — safe.

Two layers:

* :func:`mp_context` picks the multiprocessing start method explicitly
  (``fork`` where available for cheap startup, ``spawn`` otherwise;
  overridable via ``REPRO_MP_START_METHOD``) instead of relying on the
  platform default;
* :class:`WorkerPool` is the one supervised executor (the scheduler,
  the resilience layer and the daemon's shards all run on it): it owns
  its worker processes and streams indexed jobs, yielding completions
  out of order for the caller to reassemble.

Replicating a scenario across the pool is
:meth:`repro.experiments.scheduler.ReplicationScheduler.replicate`,
bit-identical to the serial
:func:`repro.core.simulation.replicate_scenario` in all cases.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from ..resilience.policy import RetryPolicy, SupervisionReport
from .parameters import ScenarioConfig
from .simulation import ScenarioResult, run_scenario

#: Environment variable forcing a multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: One indexed job: (index, config, seed, replication).
IndexedJob = Tuple[int, ScenarioConfig, int, int]

#: Upper bound on tasks queued to one worker; small enough to keep
#: workers balanced and every worker's pipe far from full.
_MAX_CHUNK = 8

#: Cost model for the dispatch-planning heuristics.  Calibrated
#: conservatively for the fork start method (spawn costs more, which only
#: makes degrading to serial *more* correct when the model says to).
POOL_STARTUP_SECONDS = 0.25
DISPATCH_SECONDS_PER_CHUNK = 0.004

#: How long the dispatch loop blocks on results and worker exits, and
#: how often an idle worker checks that its parent is still alive.
_POLL_SECONDS = 0.05

#: Grace given to an exiting worker before escalating to terminate/kill.
_SHUTDOWN_GRACE = 1.0


def mp_context():
    """An explicitly chosen multiprocessing context.

    Prefers ``fork`` (cheap worker startup; the workers never mutate
    inherited state) and falls back to ``spawn`` elsewhere; both work
    because the worker is a module-level function with picklable
    arguments.  Set ``REPRO_MP_START_METHOD`` to override.
    """
    method = os.environ.get(START_METHOD_ENV)
    if method:
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def default_process_count() -> int:
    """A conservative default: physical parallelism minus one, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def chunk_size_for(job_count: int, processes: int) -> int:
    """Tasks queued per worker, balancing dispatch overhead against tail latency.

    Targets about two chunks per worker: small campaigns (a figure's 30
    replications on 4 workers) keep a few tasks queued per worker
    instead of one IPC round-trip per job, while the second wave still
    rebalances a straggling worker.
    """
    if job_count <= 0 or processes <= 1:
        return 1
    per_worker_waves = -(-job_count // (processes * 2))  # ceil
    return max(1, min(_MAX_CHUNK, per_worker_waves))


def effective_parallelism(processes: int, job_count: Optional[int] = None) -> int:
    """Worker slots that can actually run simultaneously.

    Requested workers are capped by physical cores (oversubscribed pools
    time-slice, they don't speed up) and by the job count.
    """
    cap = min(processes, os.cpu_count() or 1)
    if job_count is not None:
        cap = min(cap, job_count)
    return max(1, cap)


def projected_speedup(
    job_count: int,
    processes: int,
    est_job_seconds: float,
    pool_started: bool = False,
) -> float:
    """Estimated serial-wall over parallel-wall ratio for one batch.

    The parallel estimate charges pool startup (waived when the
    persistent pool is already running), one dispatch round-trip per
    chunk, and perfect work division across the effective workers — an
    optimistic parallel model, so a projection below 1.0 is a confident
    "serial wins" signal.
    """
    if job_count <= 0 or processes <= 1:
        return 1.0
    workers = effective_parallelism(processes, job_count)
    serial = job_count * max(est_job_seconds, 0.0)
    chunk = chunk_size_for(job_count, processes)
    chunks = -(-job_count // chunk)
    parallel = (
        (0.0 if pool_started else POOL_STARTUP_SECONDS)
        + chunks * DISPATCH_SECONDS_PER_CHUNK
        + serial / workers
    )
    if parallel <= 0.0:
        return 1.0
    return serial / parallel


def _run_indexed(job: IndexedJob) -> Tuple[int, ScenarioResult]:
    """Pool worker: one indexed replication (module-level for picklability)."""
    index, config, seed, replication = job
    return index, run_scenario(config, seed=seed, replication=replication)


#: Public alias: the campaign daemon's shard job executes *exactly* this
#: function per task, so shard results are byte-identical to the pool's
#: and the serial path's.
run_indexed_job = _run_indexed


def task_key(job: IndexedJob) -> str:
    """Human-readable stable identity of one replication task."""
    _, config, seed, replication = job
    return f"{config.name}:s{seed}:r{replication}"


class WorkerError(RuntimeError):
    """A task failed under a pool without a retry policy (fail fast)."""


class _Batch:
    """One stream's jobs (task id = position) and their ready heap."""

    def __init__(self, jobs: List[IndexedJob], faults: Dict[int, Any],
                 depth: int) -> None:
        self.jobs = jobs
        self.faults = faults
        self.failures = [0] * len(jobs)
        self.ready = [(0.0, i, i) for i in range(len(jobs))]
        self.seq = self.remaining = len(jobs)
        self.depth = depth

    def requeue(self, task_id: int, delay: float = 0.0) -> None:
        self.seq += 1
        eligible_at = time.monotonic() + delay if delay > 0 else 0.0
        heapq.heappush(self.ready, (eligible_at, self.seq, task_id))


@dataclass
class _Worker:
    """One worker slot: its current process and pipe, kept across respawns."""

    slot: int
    process: Any = None
    conn: Any = None
    respawns: int = 0
    completed: int = 0
    #: Ids of tasks sent to this worker and not yet answered.
    outstanding: Set[int] = field(default_factory=set)
    retired: bool = False

    @property
    def alive(self) -> bool:
        try:
            return not self.retired and self.process.is_alive()
        except ValueError:  # closed by a concurrent respawn
            return False


def _worker_main(conn, stamps, slot: int, runner, parent_pid: int) -> None:
    """Worker loop: run one task per message until the ``None`` sentinel.

    Each task's start time, then its id, is stamped into
    ``stamps[2*slot:2*slot+2]`` (id ``-1`` = idle) so the parent can
    charge a crash or a hang to exactly one task.  Injected exceptions
    are ordinary task errors; injected ``os._exit`` crashes bypass the
    try.  The job function is looked up in module globals per task, so
    patched or wrapped bindings reach forked workers.
    """
    base = 2 * slot
    try:
        while True:
            while not conn.poll(_POLL_SECONDS):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
            if message is None:
                return
            task_id, attempt, job, fault = message
            stamps[base] = time.time()
            stamps[base + 1] = task_id
            try:
                if fault is not None:
                    fault.apply(attempt)
                run = runner or _run_indexed
                reply = (task_id, True, run(job))
            except Exception as exc:
                reply = (task_id, False, f"{type(exc).__name__}: {exc}")
            stamps[base + 1] = -1.0
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent gone or tearing the pool down


class WorkerPool:
    """Persistent, supervised process pool streaming indexed jobs.

    Workers start lazily and persist across calls; ``processes == 1``
    runs jobs inline, identical to the serial path.  ``policy=None``
    fails fast: a worker death or task error tears the workers down and
    raises :class:`WorkerError` naming the task.  Under a
    :class:`~repro.resilience.policy.RetryPolicy` a failed attempt is
    retried after backoff or quarantined (in :attr:`report`); a task past
    ``task_timeout`` gets its worker killed; a lost worker is charged
    only for its stamped task (queued ones re-queue free), respawned
    ``max_pool_respawns`` times, then retired; with none left, tasks run
    inline with fault directives in *soft* mode.  ``route(job, n)`` pins
    a task to one of ``n`` workers (``n`` = the survivors once its owner
    retires; default: the least-loaded worker).  ``runner(slot,
    respawns)`` builds one worker incarnation's job function in place of
    :func:`_run_indexed` (``slot=None``: inline).
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        route: Optional[Callable[[IndexedJob, int], int]] = None,
        runner: Optional[Callable[[Optional[int], int], Callable]] = None,
    ) -> None:
        count = processes if processes is not None else default_process_count()
        if count < 1:
            raise ValueError(f"processes must be >= 1, got {count}")
        self.processes = count
        self.policy = policy
        self.route = route
        self.runner = runner
        #: Supervision outcome of the most recent ``imap_*`` stream.
        self.report = SupervisionReport()
        #: The worker slots (empty until started).
        self.workers: List[_Worker] = []
        self._stamps: Any = None
        self._batch: Optional[_Batch] = None
        self._inline_runner: Optional[Callable] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Clean exits drain in-flight work; exceptional exits must not
        # block on it (the results will never be consumed anyway).
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    @property
    def started(self) -> bool:
        """True once worker processes exist (startup cost already paid)."""
        return bool(self.workers)

    def task_age(self, worker: _Worker) -> float:
        """Seconds the worker's current task has run (0.0 when idle)."""
        base = 2 * worker.slot
        if self._stamps is None or self._stamps[base + 1] < 0:
            return 0.0
        return max(0.0, time.time() - self._stamps[base])

    def _ensure_pool(self) -> None:
        if not self.workers:
            if self._stamps is None:
                self._stamps = mp_context().RawArray("d", 2 * self.processes)
            self.workers = [_Worker(slot) for slot in range(self.processes)]
            for worker in self.workers:
                self._spawn(worker)

    def _spawn(self, worker: _Worker) -> None:
        ctx = mp_context()
        self._stamps[2 * worker.slot + 1] = -1.0
        worker.conn, child_end = ctx.Pipe()
        runner = self.runner and self.runner(worker.slot, worker.respawns)
        worker.process = ctx.Process(
            target=_worker_main,
            args=(child_end, self._stamps, worker.slot, runner, os.getpid()),
            daemon=True,
        )
        worker.process.start()
        child_end.close()

    @staticmethod
    def _dispose(worker: _Worker) -> None:
        """Reap one worker synchronously: terminate → kill → close pipe →
        ``Process.close()``, so no descriptor outlives this call."""
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=_SHUTDOWN_GRACE)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=_SHUTDOWN_GRACE)
        worker.conn.close()
        with suppress(ValueError):  # pragma: no cover - alive after kill
            process.close()

    def close(self) -> None:
        """Shut down *after* finishing every submitted job (a stream the
        caller stopped consuming is driven to its end, results dropped)."""
        batch = self._batch
        while batch is not None and batch.remaining and self._batch is batch:
            self._advance(batch)
        self._batch = None
        live = [w for w in self.workers if not w.retired]
        for worker in live:
            with suppress(OSError):
                worker.conn.send(None)
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in live:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            self._dispose(worker)
        self.workers = []

    def terminate(self) -> None:
        """Kill workers now, abandoning in-flight jobs (exception paths)."""
        self._batch = None
        for worker in self.workers:
            if not worker.retired:
                self._dispose(worker)
        self.workers = []

    def imap_indexed(
        self, jobs: Iterable[IndexedJob], job_count: Optional[int] = None,
        faults: Optional[Dict[int, Any]] = None,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Any]:
        """Yield ``(index, result)`` (or the runner's items), unordered.

        ``faults`` maps task ids (positions in ``jobs``) to fault
        directives; ``should_abort`` is polled between waits and ends
        the stream.  ``job_count == 0`` never pays pool startup.
        """
        self.report = SupervisionReport()
        jobs = list(jobs) if job_count != 0 else []
        if not jobs:
            return
        if self.processes > 1:
            self._ensure_pool()
        depth = _MAX_CHUNK if self.route else chunk_size_for(len(jobs), self.processes)
        batch = self._batch = _Batch(jobs, faults or {}, depth)
        try:
            while batch.remaining and self._batch is batch:
                if should_abort is not None and should_abort():
                    break
                yield from self._advance(batch)
        finally:
            if self._batch is batch:
                self._batch = None
                if batch.remaining:
                    self.terminate()  # abandoned mid-stream

    def _advance(self, batch: _Batch) -> List[Any]:
        """One round: dispatch, wait, collect, supervise, top up."""
        live = [w for w in self.workers if not w.retired]
        if not live:
            return self._run_inline(batch)
        self._dispatch(batch, live)
        wait([w.conn for w in live] + [w.process.sentinel for w in live],
             timeout=_POLL_SECONDS)
        done: List[Any] = []
        timeout = self.policy.task_timeout if self.policy else None
        for worker in live:
            self._collect(batch, worker, done)
            if not worker.process.is_alive():
                self._lost(batch, worker, done, timed_out=False)
            elif timeout is not None and self.task_age(worker) > timeout:
                self._lost(batch, worker, done, timed_out=True)
        # Top up before the caller handles these results, so no worker
        # idles meanwhile.
        self._dispatch(batch, [w for w in self.workers if not w.retired])
        return done

    def _dispatch(self, batch: _Batch, live: List[_Worker]) -> None:
        """Send eligible ready tasks to their workers while queues have room."""
        now = time.monotonic()
        blocked = []
        while batch.ready and batch.ready[0][0] <= now and any(
            len(w.outstanding) < batch.depth for w in live
        ):
            entry = heapq.heappop(batch.ready)
            task_id = entry[2]
            job = batch.jobs[task_id]
            if self.route is None:
                worker = min(live, key=lambda w: len(w.outstanding))
            else:
                worker = self.workers[self.route(job, self.processes)]
                if worker.retired:
                    worker = live[self.route(job, len(live))]
            if len(worker.outstanding) >= batch.depth:
                blocked.append(entry)
                continue
            worker.outstanding.add(task_id)
            message = (task_id, batch.failures[task_id], job,
                       batch.faults.get(task_id))
            with suppress(OSError):  # a dead worker: _lost() re-queues it
                worker.conn.send(message)
        for entry in blocked:
            heapq.heappush(batch.ready, entry)

    def _collect(self, batch: _Batch, worker: _Worker, done: List[Any]) -> None:
        """Consume every reply the worker has already sent."""
        try:
            while worker.conn.poll():
                task_id, ok, payload = worker.conn.recv()
                if task_id not in worker.outstanding:
                    continue
                worker.outstanding.discard(task_id)
                if ok:
                    worker.completed += 1
                    batch.remaining -= 1
                    done.append(payload)
                else:
                    self._fail(batch, task_id, "error", payload)
        except (EOFError, OSError):
            pass  # died mid-reply; _lost() handles the rest

    def _lost(self, batch: _Batch, worker: _Worker, done: List[Any],
              timed_out: bool) -> None:
        """Charge a dead or overdue worker's stamped task; respawn or retire it."""
        self._collect(batch, worker, done)
        orphans, worker.outstanding = worker.outstanding, set()
        self.report.reassigned += len(orphans)
        stamped = int(self._stamps[2 * worker.slot + 1])
        charged = stamped if stamped in orphans else None
        process = worker.process
        detail = f"worker pid {process.pid} exited with code {process.exitcode}"
        if timed_out:
            detail = f"exceeded the {self.policy.task_timeout:g}s task timeout"
        if self.policy is None:
            self.terminate()
            where = "no task" if charged is None else f"task {task_key(batch.jobs[charged])}"
            raise WorkerError(f"{detail} while running {where}")
        self._dispose(worker)
        for task_id in orphans - {charged}:
            batch.requeue(task_id)
        if charged is not None:
            self._fail(batch, charged, "timeout" if timed_out else "crash", detail)
        if worker.respawns >= self.policy.max_pool_respawns:
            worker.retired = True
            self.report.retired.append(worker.slot)
        else:
            worker.respawns += 1
            self.report.respawns += 1
            self._spawn(worker)

    def _fail(self, batch: _Batch, task_id: int, kind: str, detail: str) -> None:
        """Count one failed attempt: re-queue after backoff, or quarantine."""
        key = task_key(batch.jobs[task_id])
        if self.policy is None:
            self.terminate()
            raise WorkerError(f"task {key} failed: {detail}")
        attempt = batch.failures[task_id]
        delay = self.report.record(self.policy, task_id, key, attempt, kind, detail)
        batch.failures[task_id] += 1
        if delay is None:
            batch.remaining -= 1
        else:
            batch.requeue(task_id, delay)

    def _run_inline(self, batch: _Batch) -> List[Any]:
        """Run the next ready task in this process (soft fault mode)."""
        eligible_at, _, task_id = heapq.heappop(batch.ready)
        time.sleep(max(0.0, eligible_at - time.monotonic()))
        if self.runner is not None and self._inline_runner is None:
            self._inline_runner = self.runner(None, 0)
        run = self._inline_runner or _run_indexed
        if self.processes > 1:
            self.report.inline += 1
        fault = batch.faults.get(task_id)
        try:
            if fault is not None:
                fault.apply(batch.failures[task_id], soft=True)
            payload = run(batch.jobs[task_id])
        except Exception as exc:
            if self.policy is None:
                raise
            self._fail(batch, task_id, "error", f"{type(exc).__name__}: {exc}")
            return []
        batch.remaining -= 1
        return [payload]


__all__ = [
    "DISPATCH_SECONDS_PER_CHUNK",
    "IndexedJob",
    "POOL_STARTUP_SECONDS",
    "START_METHOD_ENV",
    "WorkerError",
    "WorkerPool",
    "chunk_size_for",
    "default_process_count",
    "effective_parallelism",
    "mp_context",
    "projected_speedup",
    "run_indexed_job",
    "task_key",
]
