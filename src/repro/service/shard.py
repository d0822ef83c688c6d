"""Key routing for the campaign daemon's shard fleet.

The daemon runs campaigns on the ``shards`` workers of one
:class:`~repro.core.parallel.WorkerPool`.  Each shard *owns a partition
of the result-cache key space* (``int(key[:8], 16) % shards``), so two
shards never compute or write the same cache entry — no locks — and a
shard's warm partition survives its respawns.  Supervision is the
pool's, with this fleet's values of the one deadline
(``heartbeat_timeout``: a task running longer gets its shard killed and
respawned) and the one respawn budget (``max_respawns``: then the shard
is quarantined and its partition re-routed to the survivors; with none
left, tasks run inline in the daemon — it degrades, it does not fail).

Fault hook: ``kill_after_tasks`` makes a designated shard ``os._exit``
with :data:`~repro.faults.plan.WORKER_CRASH_EXIT_CODE` right after
computing and caching its Nth task (the reply is lost, so the retry is
a cache hit) — the deterministic crash the soak harness and the
``service`` test tier seed their kill points with.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.cache import ResultCache
from ..core.parallel import IndexedJob, WorkerPool, run_indexed_job
from ..core.simulation import ScenarioResult
from ..faults.plan import WORKER_CRASH_EXIT_CODE
from ..resilience.policy import RetryPolicy


@dataclass
class ShardTask:
    """One routed unit of work (a single replication)."""

    index: int
    key: str
    job: IndexedJob


def route_key(key: str, shards: int) -> int:
    """Stable partition of the cache key space across ``shards``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(key[:8], 16) % shards


class ShardJob:
    """One shard incarnation's job: cache get → replicate → cache put.

    The fault hook arms only a shard's *first* incarnation (``slot`` is
    ``None`` inline), so the respawned shard finishes the campaign.
    """

    def __init__(self, cache_root: Optional[str], kill_after_tasks: Dict[int, int],
                 slot: Optional[int], respawns: int) -> None:
        self.cache = ResultCache(cache_root) if cache_root else None
        self.kill_after = kill_after_tasks.get(slot) if respawns == 0 else None
        self.completed = 0

    def __call__(self, job: IndexedJob) -> Tuple[int, ScenarioResult, bool]:
        index, config, seed, replication = job
        result = None
        if self.cache is not None:
            result = self.cache.get(config, seed, replication)
        cache_hit = result is not None
        if result is None:
            _, result = run_indexed_job(job)
            if self.cache is not None:
                try:
                    self.cache.put(result)
                except OSError:
                    pass  # the result still ships; daemon re-counts errors
        self.completed += 1
        if self.kill_after is not None and self.completed >= self.kill_after:
            os._exit(WORKER_CRASH_EXIT_CODE)
        return index, result, cache_hit


@dataclass
class ShardReport:
    """Accounting for one campaign's trip through the fleet."""

    executed: int = 0
    cache_hits: int = 0
    respawns: int = 0
    quarantined_shards: List[int] = field(default_factory=list)
    inline_fallback: int = 0
    reassigned_tasks: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class ShardManager:
    """Routes campaign tasks over the shard fleet (see module docstring)."""

    def __init__(
        self,
        shards: int = 2,
        cache_root: Optional[str] = None,
        heartbeat_timeout: float = 30.0,
        max_respawns: int = 3,
        kill_after_tasks: Optional[Dict[int, int]] = None,
    ) -> None:
        # Every task failure is a shard death or a wedge, and the fleet
        # dies at most shards * (max_respawns + 1) times: no task is
        # ever quarantined for its shard's sake.
        policy = RetryPolicy(
            max_retries=shards * (max_respawns + 1),
            task_timeout=heartbeat_timeout,
            backoff_base=0.0,
            backoff_cap=0.0,
            max_pool_respawns=max_respawns,
        )
        self._keys: Dict[int, str] = {}
        self._pool = WorkerPool(
            shards,
            policy=policy,
            route=self._route,
            runner=partial(ShardJob, cache_root, dict(kill_after_tasks or {})),
        )

    def _route(self, job: IndexedJob, shards: int) -> int:
        return route_key(self._keys[job[0]], shards)

    def start(self) -> None:
        self._pool._ensure_pool()

    def close(self) -> None:
        """Stop every shard and release its descriptors."""
        self._pool.close()

    def probe(self) -> List[Dict[str, Any]]:
        """Per-shard health snapshot (served by the daemon's ``status``)."""
        return [
            {
                "shard": worker.slot,
                "alive": worker.alive,
                "quarantined": worker.retired,
                "heartbeat_age": round(self._pool.task_age(worker), 3),
                "completed": worker.completed,
                "respawns": worker.respawns,
                "outstanding": len(worker.outstanding),
            }
            for worker in list(self._pool.workers)
        ]

    def healthy_shards(self) -> int:
        return sum(1 for worker in self._pool.workers if worker.alive)

    def execute(
        self,
        tasks: List[ShardTask],
        on_result: Callable[[int, ScenarioResult], None],
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> ShardReport:
        """Run one campaign's tasks across the fleet.

        ``on_result(index, result)`` fires exactly once per index, in
        completion order (the daemon reassembles).
        """
        self.start()
        report = ShardReport()
        self._keys = {task.index: task.key for task in tasks}
        jobs = [task.job for task in tasks]
        for index, result, cache_hit in self._pool.imap_indexed(
            jobs, job_count=len(jobs), should_abort=should_abort
        ):
            report.executed += 0 if cache_hit else 1
            report.cache_hits += 1 if cache_hit else 0
            on_result(index, result)
        supervision = self._pool.report
        report.respawns = supervision.respawns
        report.quarantined_shards = list(supervision.retired)
        report.inline_fallback = supervision.inline
        report.reassigned_tasks = supervision.reassigned
        return report

__all__ = [
    "ShardJob",
    "ShardManager",
    "ShardReport",
    "ShardTask",
    "route_key",
]
