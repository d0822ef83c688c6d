"""Experiment-level replication scheduler.

The unit of work for every figure, sweep, and CLI batch is one
*replication job* — ``(scenario config, master seed, replication index)``.
This module flattens whole experiments (and multi-experiment batches)
into one job list, satisfies jobs from the disk-backed
:class:`~repro.core.cache.ResultCache` where possible, dispatches the
rest across a persistent :class:`~repro.core.parallel.WorkerPool` with
chunked streaming, and reassembles completions deterministically: results
land by job index, so the output is *bit-identical* to the serial path
regardless of completion order, worker count, or cache state — each job
derives its RNG streams from ``(seed, replication)`` alone.

Typical use::

    with ReplicationScheduler(processes=4, cache=ResultCache()) as sched:
        result = sched.run_experiment(get_experiment("fig3"), seed=2007)
        print(sched.stats)

Fault tolerance: pass a :class:`~repro.resilience.RetryPolicy` as
``resilience`` and the same pool supervises pending jobs under it —
per-task timeouts, bounded retries with deterministic backoff,
crashed-worker respawn, and task quarantine (the campaign continues;
quarantined slots surface as ``None`` results and in
:meth:`failure_summary`).  Without a policy the pool fails fast: a dead
worker raises instead of hanging the campaign.  Pass a
:class:`~repro.resilience.CampaignCheckpoint` and every completed
replication key is periodically checkpointed; on resume the checkpoint
reconciles against the cache so only missing work re-executes.  Cache
write failures (``OSError``) never lose a computed result — the result
is still returned, the failure is counted and reported.  On an
exceptional exit (``KeyboardInterrupt`` included) the context manager
*aborts*: the pool is terminated (not drained), orphaned cache temp
files are swept, and the checkpoint is flushed so ``--resume`` sees the
latest progress.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.cache import ResultCache, result_key
from ..core.parallel import (
    IndexedJob,
    WorkerPool,
    effective_parallelism,
    projected_speedup,
)
from ..core.parameters import ScenarioConfig
from ..core.simulation import ReplicationSet, ScenarioResult, run_scenario
from ..obs.metrics import NULL_METRICS, Metrics
from ..resilience.checkpoint import CampaignCheckpoint
from ..resilience.policy import FailureEvent, RetryPolicy, SupervisionReport
from .spec import ExperimentResult, ExperimentSpec


#: Prior for one replication's runtime before any batch has calibrated
#: the estimate — roughly one small-population figure replication.
DEFAULT_JOB_SECONDS = 0.05


def _run_with_telemetry(
    job: IndexedJob,
) -> Tuple[int, ScenarioResult, Dict[str, Any]]:
    """One indexed replication plus a telemetry sidecar.

    The sidecar carries the worker pid, the job's wall time, and a
    :meth:`~repro.obs.metrics.Metrics.snapshot` of the job's registry —
    the cross-process channel the scheduler aggregates per-worker event
    rates from.  The :class:`ScenarioResult` itself is byte-identical to
    an untimed run (telemetry never contaminates cached or golden
    results).
    """
    index, config, seed, replication = job
    metrics = Metrics(enabled=True)
    start = time.perf_counter()
    result = run_scenario(
        config, seed=seed, replication=replication, metrics=metrics
    )
    sidecar = {
        "pid": os.getpid(),
        "wall_seconds": time.perf_counter() - start,
        "metrics": metrics.snapshot(),
    }
    return index, result, sidecar


def telemetry_runner(slot: Optional[int], respawns: int) -> Callable:
    """:class:`~repro.core.parallel.WorkerPool` ``runner`` hook of a
    telemetry-on scheduler: every worker (and the inline path) yields
    ``(index, result, sidecar)``.  Module-level, so the job function
    pickles under ``spawn``."""
    return _run_with_telemetry


@dataclass
class JobSecondsEstimator:
    """Running estimate of one replication's wall seconds.

    Shared by the dispatch planner (``projected_speedup`` inputs) and
    the campaign daemon's admission control (``retry_after`` hints).
    Each observed batch folds in as ``wall * workers / executed`` —
    exact for inline batches, an upper bound for pooled ones (startup
    and imbalance inflate it), which only biases consumers toward
    conservative projections.  Blended 50/50 with the prior estimate so
    one outlier batch cannot swing the schedule.
    """

    default: float = DEFAULT_JOB_SECONDS
    _estimate: Optional[float] = None

    @property
    def calibrated(self) -> bool:
        """True once at least one batch has been observed."""
        return self._estimate is not None

    @property
    def estimate(self) -> float:
        """Current per-job estimate (the prior until calibrated)."""
        return self._estimate if self._estimate is not None else self.default

    def note(self, executed: int, workers: int, wall: float) -> None:
        """Fold one batch's measured wall time into the estimate."""
        if executed <= 0 or wall <= 0.0:
            return
        observed = wall * max(1, workers) / executed
        self._estimate = (
            observed
            if self._estimate is None
            else 0.5 * self._estimate + 0.5 * observed
        )


@dataclass(frozen=True)
class ReplicationJob:
    """One schedulable replication."""

    config: ScenarioConfig
    seed: int
    replication: int


@dataclass
class SchedulerStats:
    """Aggregate accounting across every batch a scheduler ran."""

    scheduled: int = 0
    executed: int = 0
    cache_hits: int = 0

    def add(self, scheduled: int, executed: int, cache_hits: int) -> None:
        """Accumulate one batch's counts."""
        self.scheduled += scheduled
        self.executed += executed
        self.cache_hits += cache_hits

    def format(self) -> str:
        """One-line summary for CLI reporting."""
        return (
            f"{self.scheduled} jobs: {self.executed} simulated, "
            f"{self.cache_hits} from cache"
        )


def flatten_experiment(
    spec: ExperimentSpec,
    replications: Optional[int] = None,
    seed: int = 0,
) -> List[ReplicationJob]:
    """All (series x replication) jobs of one spec, in declaration order."""
    reps = replications if replications is not None else spec.default_replications
    if reps < 1:
        raise ValueError(f"replications must be >= 1, got {reps}")
    return [
        ReplicationJob(config=spec.scenario_for(series), seed=seed, replication=index)
        for series in spec.series
        for index in range(reps)
    ]


def reassemble(
    job_count: int,
    completions: Iterable[Tuple[int, ScenarioResult]],
) -> List[ScenarioResult]:
    """Order out-of-order ``(index, result)`` completions by job index.

    Every index in ``range(job_count)`` must appear exactly once;
    duplicates and gaps are scheduling bugs and raise.
    """
    results: List[Optional[ScenarioResult]] = [None] * job_count
    seen = 0
    for index, result in completions:
        if not 0 <= index < job_count:
            raise ValueError(f"completion index {index} out of range [0, {job_count})")
        if results[index] is not None:
            raise ValueError(f"duplicate completion for job {index}")
        results[index] = result
        seen += 1
    if seen != job_count:
        missing = [i for i, r in enumerate(results) if r is None]
        raise ValueError(f"missing completions for jobs {missing[:10]}")
    return results  # type: ignore[return-value]


class ReplicationScheduler:
    """Runs replication jobs through a cache and a persistent worker pool.

    ``processes=1`` executes jobs inline in submission order — exactly the
    serial :func:`~repro.core.simulation.replicate_scenario` path.  The
    pool (created lazily on the first parallel batch) persists across
    calls, so a figure batch or a sweep pays worker startup once.
    """

    def __init__(
        self,
        processes: int = 1,
        cache: Optional[ResultCache] = None,
        pool: Optional[WorkerPool] = None,
        metrics: Optional[Metrics] = None,
        resilience: Optional[RetryPolicy] = None,
        checkpoint: Optional[CampaignCheckpoint] = None,
        fault_plan: Optional[Any] = None,
        auto_degrade: bool = True,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.cache = cache
        #: Telemetry registry.  With the default NULL_METRICS every batch
        #: runs the plain pool job; an enabled registry gives the pools
        #: :func:`telemetry_runner`, collecting per-batch wall times,
        #: per-worker event rates and aggregated kernel stats (see
        #: :meth:`telemetry`).
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._runner = telemetry_runner if self.metrics.enabled else None
        self._pool = (
            pool if pool is not None else WorkerPool(processes, runner=self._runner)
        )
        self._owns_pool = pool is None
        #: When True, each batch is cost-modelled before dispatch and runs
        #: inline when the pool is projected to lose to serial (small
        #: campaigns, oversubscribed hosts).  Results are bit-identical
        #: either way; only wall clock and the logged decision differ.
        #: Planning never applies to externally injected pools.
        self.auto_degrade = auto_degrade
        #: One record per planned batch (see :meth:`_plan_dispatch`);
        #: surfaces through :meth:`telemetry` into the run manifest.
        self.dispatch_decisions: List[Dict[str, Any]] = []
        #: Shared per-job runtime model (also consumed by repro.service
        #: for queue-drain / retry-after estimates).
        self.job_seconds = JobSecondsEstimator()
        self._inline_pool: Optional[WorkerPool] = None
        self.stats = SchedulerStats()
        #: Retry/timeout/quarantine policy; ``None`` = fail-fast dispatch.
        self.resilience = resilience
        #: Periodic progress checkpoint (see repro.resilience.checkpoint).
        self.checkpoint = checkpoint
        #: Fault plan for supervised dispatch (fault-injection harness);
        #: task ids index into each batch's *pending* (non-cached) jobs.
        self.fault_plan = fault_plan
        #: Every failure/retry/quarantine event across all batches.
        self.failures: List[FailureEvent] = []
        #: Quarantined jobs: dicts with scenario/seed/replication/failures.
        self.quarantined: List[Dict[str, Any]] = []
        self.cache_write_errors = 0
        self.pool_respawns = 0
        self.degraded_to_serial = False
        #: Aggregated resume reconciliation (see CampaignCheckpoint).
        self._resume_totals: Optional[Dict[str, int]] = None
        self._batches: List[Dict[str, Any]] = []
        self._worker_stats: Dict[int, Dict[str, float]] = {}
        self._seeds: set = set()
        #: Distinct scenario configs seen, keyed by name, plus job counts.
        self._scenario_jobs: Dict[str, Tuple[ScenarioConfig, int]] = {}
        #: One record per design-backed run: the factor grid, subsample
        #: seed, and (on the compiled path) dedup accounting.  Lands in
        #: the run manifest's ``design`` section.
        self.design_sections: List[Dict[str, Any]] = []

    def __enter__(self) -> "ReplicationScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A clean exit drains dispatched work; an exceptional exit — a
        # Ctrl-C above all — must NOT block on the pool (the results
        # will never be consumed) and must not leak workers or cache
        # temp orphans.
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    def close(self) -> None:
        """Shut down the worker pool (if this scheduler created it)."""
        if self.checkpoint is not None:
            self.checkpoint.flush()
        if self._owns_pool:
            self._pool.close()

    def abort(self) -> None:
        """Signal-safe teardown for exceptional exits (``KeyboardInterrupt``).

        Terminates the pool immediately (abandoning in-flight jobs),
        sweeps ``.tmp-*`` orphans an interrupted atomic cache write may
        have left behind, and flushes the campaign checkpoint so a
        ``--resume`` sees every completion that made it to the cache.
        The pool is terminated even when externally owned — after an
        interrupt its in-flight results are garbage to every owner.
        """
        try:
            if self.checkpoint is not None:
                self.checkpoint.flush()
        finally:
            try:
                self._pool.terminate()
            finally:
                if self.cache is not None:
                    self.cache.sweep()

    # -- job execution ------------------------------------------------------

    def _job_key(self, job: ReplicationJob) -> str:
        return result_key(job.config, job.seed, job.replication)

    def _cache_put(self, result: ScenarioResult) -> None:
        """Write one result back; a failed write never loses the result."""
        if self.cache is None:
            return
        try:
            self.cache.put(result)
        except OSError as exc:
            self.cache_write_errors += 1
            self.metrics.inc("resilience.cache_write_errors")
            self.failures.append(
                FailureEvent(
                    task_id=-1,
                    key=self._job_key(
                        ReplicationJob(result.config, result.seed, result.replication)
                    ),
                    attempt=0,
                    kind="cache-write",
                    action="continue",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )

    def _record_completion(self, job: ReplicationJob) -> None:
        if self.checkpoint is not None:
            self.checkpoint.record(self._job_key(job))

    def _merge_resume(self, report) -> None:
        totals = self._resume_totals
        if totals is None:
            totals = self._resume_totals = {
                "previously_completed": 0,
                "resumed_from_cache": 0,
                "lost_entries": 0,
                "fresh": 0,
            }
        for field_name, value in report.to_dict().items():
            totals[field_name] += value

    def _absorb_report(
        self,
        report: SupervisionReport,
        pending: List[Tuple[int, ReplicationJob]],
    ) -> None:
        """Fold one supervised batch's failures into the run's accounting.

        Quarantined tasks leave their result slot ``None`` and are
        recorded in :attr:`quarantined` (the campaign continues).
        """
        for task_id in report.quarantined:
            _, job = pending[task_id]
            self.quarantined.append(
                {
                    "scenario": job.config.name,
                    "seed": job.seed,
                    "replication": job.replication,
                    "failures": self.resilience.max_attempts,
                }
            )
        for event in report.events:
            kind = {"crash": "crashes", "timeout": "timeouts"}.get(event.kind)
            action = "retries" if event.action == "retry" else "quarantined"
            for name in ("failures", kind or "task_errors", action):
                self.metrics.inc(f"resilience.{name}")
        self.failures.extend(report.events)
        self.pool_respawns += report.respawns
        if report.respawns:
            self.metrics.inc("resilience.pool_respawns", report.respawns)
        if report.inline:
            self.degraded_to_serial = True
            self.metrics.inc("resilience.degraded_to_serial")

    # -- dispatch planning ---------------------------------------------------

    def _plan_dispatch(self, pending_count: int) -> WorkerPool:
        """Choose the pool (or inline execution) for one batch, and log why.

        With more than one process requested, the batch is projected with
        the :func:`~repro.core.parallel.projected_speedup` cost model
        (pool startup + per-chunk dispatch against perfect work division).
        When ``auto_degrade`` is on and the projection says the pool loses
        to serial, the batch runs inline through a one-process pool — the
        same jobs under the same indexes, so results stay bit-identical —
        and the parallel pool is never even started.  A policy with a
        ``task_timeout`` never degrades: inline execution cannot enforce
        a timeout.  Every planned batch appends a decision record for
        the run manifest.
        """
        if self.processes == 1 or not self._owns_pool:
            return self._pool
        if pending_count == 0:
            # A fully cached batch (every probe of a frontier re-run, a
            # resumed sweep) must never pay pool startup; log the branch
            # so the manifest shows why no workers ran.
            self._note_cached_batch()
            return self._pool
        speedup = projected_speedup(
            pending_count,
            self.processes,
            self.job_seconds.estimate,
            pool_started=self._pool.started,
        )
        degrade = (
            self.auto_degrade
            and speedup < 1.0
            and (self.resilience is None or self.resilience.task_timeout is None)
        )
        self._log_decision(
            pending_count,
            effective_parallelism(self.processes, pending_count),
            round(speedup, 3),
            "serial" if degrade else "parallel",
        )
        if not degrade:
            return self._pool
        if self._inline_pool is None:
            self._inline_pool = WorkerPool(1, runner=self._runner)
        return self._inline_pool

    def _note_cached_batch(self) -> None:
        """Log a fully-cached batch as its own dispatch decision.

        Mirrors the ``_plan_dispatch`` guard: serial schedulers and
        externally injected pools never log decisions, so their
        manifests are unchanged.  For parallel schedulers the record
        makes the cache short-circuit auditable — ``mode: "cached"``
        with zero pending jobs and no speedup projection at all.
        """
        if self.processes == 1 or not self._owns_pool:
            return
        self._log_decision(0, 0, None, "cached")

    def _log_decision(
        self, pending: int, workers: int, speedup: Optional[float], mode: str
    ) -> None:
        """Append one dispatch decision record and count its mode."""
        self.dispatch_decisions.append(
            {
                "pending": pending,
                "requested_processes": self.processes,
                "cpu_count": os.cpu_count() or 1,
                "effective_workers": workers,
                "estimated_job_seconds": round(self.job_seconds.estimate, 6),
                "estimate_source": (
                    "calibrated" if self.job_seconds.calibrated else "default"
                ),
                "projected_speedup": speedup,
                "auto_degrade": self.auto_degrade,
                "mode": mode,
            }
        )
        self.metrics.inc(f"scheduler.dispatch.{mode}")

    def run_jobs(
        self, jobs: Sequence[ReplicationJob]
    ) -> List[Optional[ScenarioResult]]:
        """Execute ``jobs``, returning results in job order.

        Cached results are returned without simulation; the remainder is
        dispatched to the pool (or run inline at ``processes=1``) and
        every fresh result is written back to the cache.  Without a
        resilience policy every returned entry is a result (gaps raise);
        with one, a quarantined job's slot is ``None`` and the failure is
        recorded instead of raised.
        """
        quarantined_before = len(self.quarantined)
        results: List[Optional[ScenarioResult]] = [None] * len(jobs)
        pending: List[Tuple[int, ReplicationJob]] = []
        cache_present: List[bool] = [False] * len(jobs)
        if self.cache is not None:
            for index, job in enumerate(jobs):
                hit = self.cache.get(job.config, job.seed, job.replication)
                if hit is not None:
                    results[index] = hit
                    cache_present[index] = True
                    self._record_completion(job)
                else:
                    pending.append((index, job))
        else:
            pending = list(enumerate(jobs))
        if (
            self.checkpoint is not None
            and self.checkpoint.previously_completed
            and jobs
        ):
            self._merge_resume(
                self.checkpoint.reconcile(
                    [self._job_key(job) for job in jobs], cache_present
                )
            )

        cache_hits = len(jobs) - len(pending)
        batch_start = time.perf_counter()
        workers = 0
        if pending:
            pool = self._plan_dispatch(len(pending))
            if self._owns_pool:
                pool.policy = self.resilience  # read per batch, like the plan
            indexed: Iterator[IndexedJob] = (
                (index, job.config, job.seed, job.replication)
                for index, job in pending
            )
            # Only a fault plan adds the ``faults`` keyword, so injected
            # duck-typed pools keep the plain two-argument call.
            extra = {} if self.fault_plan is None else {"faults": self.fault_plan.specs}
            # Pools running telemetry_runner append a sidecar.
            for index, result, *sidecar in pool.imap_indexed(
                indexed, job_count=len(pending), **extra
            ):
                results[index] = result
                if sidecar:
                    self._absorb_sidecar(result, *sidecar)
                self._cache_put(result)
                self._record_completion(jobs[index])
            if self.resilience is not None:
                self._absorb_report(pool.report, pending)
            workers = effective_parallelism(pool.processes, len(pending))
        elif jobs:
            # Every job was a cache hit: skip dispatch planning entirely
            # (zero pool startups) but keep the decision trail complete.
            self._note_cached_batch()
        batch_seconds = time.perf_counter() - batch_start
        self.job_seconds.note(len(pending), workers, batch_seconds)
        self.stats.add(
            scheduled=len(jobs), executed=len(pending), cache_hits=cache_hits
        )
        if self.checkpoint is not None:
            self.checkpoint.flush()
        if self.metrics.enabled:
            self._note_batch(jobs, len(pending), batch_seconds)
        if len(self.quarantined) > quarantined_before:
            # Partial completion: quarantined slots legitimately stay None.
            return results
        return reassemble(len(jobs), enumerate(results))  # validates coverage

    # -- telemetry ----------------------------------------------------------

    def _absorb_sidecar(
        self, result: ScenarioResult, sidecar: Mapping[str, Any]
    ) -> None:
        """Fold one worker's per-job telemetry into the aggregates.

        Events come from the result's ``events_fired`` counter, which
        both engines carry.
        """
        self.metrics.merge(sidecar.get("metrics", {}))
        pid = int(sidecar.get("pid", 0))
        entry = self._worker_stats.get(pid)
        if entry is None:
            entry = self._worker_stats[pid] = {
                "jobs": 0,
                "events": 0,
                "busy_seconds": 0.0,
            }
        entry["jobs"] += 1
        entry["busy_seconds"] += float(sidecar.get("wall_seconds", 0.0))
        entry["events"] += int(result.counters.get("events_fired", 0))

    def _note_batch(
        self, jobs: Sequence[ReplicationJob], executed: int, wall: float
    ) -> None:
        """Record one batch's accounting (telemetry-enabled runs only)."""
        self._batches.append(
            {
                "jobs": len(jobs),
                "executed": executed,
                "cache_hits": len(jobs) - executed,
                "wall_seconds": wall,
            }
        )
        self.metrics.inc("scheduler.batches")
        self.metrics.inc("scheduler.jobs", len(jobs))
        self.metrics.inc("scheduler.executed", executed)
        self.metrics.inc("scheduler.cache_hits", len(jobs) - executed)
        self.metrics.observe("scheduler.batch_seconds", wall)
        for job in jobs:
            self._seeds.add(job.seed)
            seen = self._scenario_jobs.get(job.config.name)
            if seen is None:
                self._scenario_jobs[job.config.name] = (job.config, 1)
            else:
                self._scenario_jobs[job.config.name] = (seen[0], seen[1] + 1)

    def cache_telemetry(self) -> Optional[Dict[str, Any]]:
        """Manifest-ready cache section (``None`` when caching is off)."""
        if self.cache is None:
            return None
        lookups = self.cache.hits + self.cache.misses
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "writes": self.cache.writes,
            "hit_ratio": round(self.cache.hits / lookups, 4) if lookups else 0.0,
            # Resolved so a CWD-relative cache dir is unambiguous in the
            # manifest (the whole point of recording it — split caches
            # show up as differing absolute paths).
            "dir": str(Path(self.cache.root).resolve()),
        }

    # -- failure reporting ---------------------------------------------------

    @property
    def has_failures(self) -> bool:
        """True when any replication was quarantined (partial campaign)."""
        return bool(self.quarantined)

    def failure_summary(self) -> List[str]:
        """Per-scenario failure lines for CLI stderr reporting."""
        lines: List[str] = []
        by_scenario: Dict[str, List[Dict[str, Any]]] = {}
        for entry in self.quarantined:
            by_scenario.setdefault(entry["scenario"], []).append(entry)
        for scenario, entries in sorted(by_scenario.items()):
            replications = ", ".join(
                str(e["replication"]) for e in sorted(
                    entries, key=lambda e: e["replication"]
                )
            )
            attempts = entries[0]["failures"]
            lines.append(
                f"{scenario}: {len(entries)} replication(s) failed after "
                f"{attempts} attempt(s) each (replication {replications})"
            )
        if self.cache_write_errors:
            lines.append(
                f"cache: {self.cache_write_errors} write failure(s) — results "
                "were kept in memory but not persisted"
            )
        return lines

    @property
    def resume_totals(self) -> Optional[Dict[str, int]]:
        """Aggregated ``--resume`` reconciliation (``None`` unless resumed)."""
        if self._resume_totals is None:
            return None
        return dict(self._resume_totals)

    def resilience_telemetry(self) -> Optional[Dict[str, Any]]:
        """Manifest-ready resilience section (``None`` when inactive).

        Present whenever a policy was configured *or* any resilience
        event occurred (e.g. a cache write failure on the plain path) —
        it carries every retry/quarantine event of the run.
        """
        if (
            self.resilience is None
            and not self.failures
            and self._resume_totals is None
        ):
            return None
        counts: Dict[str, int] = {}
        retries = 0
        quarantines = 0
        for event in self.failures:
            counts[event.kind] = counts.get(event.kind, 0) + 1
            if event.action == "retry":
                retries += 1
            elif event.action == "quarantine":
                quarantines += 1
        section: Dict[str, Any] = {
            "policy": self.resilience.to_dict() if self.resilience else None,
            "retries": retries,
            "quarantined": quarantines,
            "failures_by_kind": counts,
            "cache_write_errors": self.cache_write_errors,
            "pool_respawns": self.pool_respawns,
            "degraded_to_serial": self.degraded_to_serial,
            "quarantined_jobs": list(self.quarantined),
            "events": [event.to_dict() for event in self.failures],
        }
        if self._resume_totals is not None:
            section["resume"] = dict(self._resume_totals)
        return section

    def telemetry(self) -> Dict[str, Any]:
        """Aggregated run telemetry across every batch this scheduler ran.

        Only meaningful when the scheduler holds an enabled registry;
        with telemetry off it reports zeroed aggregates (the scheduled /
        executed / cache-hit counts in :attr:`stats` are always live).
        """
        wall = sum(b["wall_seconds"] for b in self._batches)
        events = sum(int(entry["events"]) for entry in self._worker_stats.values())
        workers = [
            {
                "pid": pid,
                "jobs": int(entry["jobs"]),
                "events": int(entry["events"]),
                "busy_seconds": round(entry["busy_seconds"], 6),
                "events_per_second": round(
                    entry["events"] / entry["busy_seconds"], 1
                )
                if entry["busy_seconds"] > 0
                else 0.0,
            }
            for pid, entry in sorted(self._worker_stats.items())
        ]
        return {
            "scheduler": {
                "scheduled": self.stats.scheduled,
                "executed": self.stats.executed,
                "cache_hits": self.stats.cache_hits,
                "processes": self.processes,
                "batches": len(self._batches),
                "auto_degrade": self.auto_degrade,
                "dispatch_decisions": [
                    dict(decision) for decision in self.dispatch_decisions
                ],
            },
            "batches": list(self._batches),
            "wall_seconds": wall,
            "events_executed": events,
            "events_per_second": round(events / wall, 1) if wall > 0 else 0.0,
            "workers": workers,
            "kernel": {
                "events_fired": events,
                "events_cancelled": self.metrics.counter_value(
                    "des.events_cancelled"
                ),
                "heap_peak": int(self.metrics.gauge_value("des.heap_peak")),
            },
            "cache": self.cache_telemetry(),
            "resilience": self.resilience_telemetry(),
        }

    def write_manifest(
        self,
        path: Union[str, Path],
        label: str,
        kind: str = "run",
        frontier: Optional[Mapping[str, Any]] = None,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Append this scheduler's run manifest record to ``path`` (JSONL).

        The record carries everything :meth:`telemetry` aggregates plus
        the distinct scenario config hashes, seeds, and host info — the
        reproducibility trail for one CLI run / figure batch / sweep.
        """
        from ..obs.manifest import append_manifest, build_manifest, scenario_hash

        tele = self.telemetry()
        scenarios = [
            {"name": name, "hash": scenario_hash(config), "jobs": count}
            for name, (config, count) in sorted(self._scenario_jobs.items())
        ]
        document = build_manifest(
            kind,
            label,
            wall_seconds=tele["wall_seconds"],
            events_executed=tele["events_executed"],
            seeds=sorted(self._seeds),
            replications=self.stats.scheduled,
            scenarios=scenarios,
            scheduler=tele["scheduler"],
            design=self.design_sections or None,
            cache=tele["cache"],
            workers=tele["workers"],
            kernel=tele["kernel"],
            resilience=tele["resilience"],
            frontier=frontier,
            metrics=self.metrics.snapshot() if self.metrics.enabled else None,
            extra=extra,
        )
        return append_manifest(path, document)

    def replicate(
        self,
        config: ScenarioConfig,
        replications: int,
        seed: int = 0,
    ) -> ReplicationSet:
        """Replicate one scenario through the scheduler."""
        jobs = [
            ReplicationJob(config=config, seed=seed, replication=index)
            for index in range(replications)
        ]
        survivors = [r for r in self.run_jobs(jobs) if r is not None]
        if not survivors:
            raise RuntimeError(
                f"every replication of scenario {config.name!r} failed and "
                "was quarantined; no statistics can be reported"
            )
        return ReplicationSet(config=config, results=survivors)

    # -- experiment orchestration -------------------------------------------

    def run_compiled(self, compiled: Any) -> ExperimentResult:
        """Run one cache-deduplicated compiled design.

        ``compiled`` is a :class:`~repro.design.compile.CompiledDesign`
        (duck-typed — this module must not import :mod:`repro.design`):
        its ``jobs`` hold each distinct configuration once, and
        ``collect()`` fans results back out to every series that
        requested them.  The dedup accounting joins the run manifest's
        ``design`` section.
        """
        self.design_sections.append(compiled.manifest_section())
        return compiled.collect(self.run_jobs(compiled.jobs))

    def run_experiment(
        self,
        spec: ExperimentSpec,
        replications: Optional[int] = None,
        seed: int = 0,
    ) -> ExperimentResult:
        """Run one spec as a flattened job list."""
        return self.run_batch([spec], replications=replications, seed=seed)[0]

    def run_batch(
        self,
        specs: Sequence[ExperimentSpec],
        replications: Optional[int] = None,
        seed: int = 0,
    ) -> List[ExperimentResult]:
        """Run several specs as *one* job list (one pool, one dispatch).

        Flattening the whole batch maximizes pool utilization: a short
        figure's workers immediately pick up the next figure's jobs
        instead of idling at a per-experiment barrier.
        """
        jobs: List[ReplicationJob] = []
        layout: List[
            Tuple[ExperimentSpec, int, List[Tuple[str, ScenarioConfig, int, int]]]
        ] = []
        for spec in specs:
            reps = (
                replications
                if replications is not None
                else spec.default_replications
            )
            slices: List[Tuple[str, ScenarioConfig, int, int]] = []
            for series in spec.series:
                scenario = spec.scenario_for(series)
                start = len(jobs)
                jobs.extend(
                    ReplicationJob(config=scenario, seed=seed, replication=i)
                    for i in range(reps)
                )
                slices.append((series.label, scenario, start, len(jobs)))
            layout.append((spec, reps, slices))
            if spec.design is not None:
                section = spec.design.grid_section()
                section.update({"seed": seed, "replications": reps})
                self.design_sections.append(section)

        results = self.run_jobs(jobs)

        experiment_results: List[ExperimentResult] = []
        for spec, reps, slices in layout:
            series_results: Dict[str, ReplicationSet] = {}
            for label, scenario, start, stop in slices:
                # Quarantined replications (resilience mode) leave None
                # slots; the series continues with the survivors.
                survivors = [r for r in results[start:stop] if r is not None]
                if not survivors:
                    raise RuntimeError(
                        f"every replication of series {label!r} "
                        f"({spec.experiment_id}) failed and was quarantined; "
                        "no statistics can be reported"
                    )
                series_results[label] = ReplicationSet(
                    config=scenario, results=survivors
                )
            experiment_results.append(
                ExperimentResult(
                    spec=spec,
                    series_results=series_results,
                    seed=seed,
                    replications=reps,
                )
            )
        return experiment_results


__all__ = [
    "DEFAULT_JOB_SECONDS",
    "JobSecondsEstimator",
    "ReplicationJob",
    "ReplicationScheduler",
    "SchedulerStats",
    "flatten_experiment",
    "reassemble",
    "telemetry_runner",
]
