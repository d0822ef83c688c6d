"""The campaign daemon: a long-running, crash-safe experiment service.

``repro-sim serve`` turns the one-shot campaign runner into an always-on
service: clients submit compiled :mod:`repro.design` documents over a
local Unix socket, the daemon queues them durably
(:class:`~repro.service.journal.PersistentQueue`), executes them across
supervised shard processes (:class:`~repro.service.shard.ShardManager`),
and streams results back incrementally.  Every durable artifact lives
under one *spool* directory::

    spool/
      journal/          the persistent queue (append-only JSONL segments)
      cache/            the shared ResultCache (shards own key partitions)
      checkpoints/      one CampaignCheckpoint per campaign
      results/          one result stream per campaign (canonical JSONL)
      requests.jsonl    the request log (every op, its outcome)
      manifest.jsonl    one ``service`` manifest record per campaign

**Crash safety.**  A submission is fsync'd into the journal before the
client sees ``ok``; execution appends a ``claim`` record; completion
appends an ``ack`` only after the result stream and checkpoint are
durably on disk.  ``kill -9`` at any point therefore loses nothing: on
restart the journal replays, in-flight campaigns are re-queued with
``recovered=True``, their checkpoints reconcile against the result cache
(cache-hot replay), and the regenerated result stream is **byte-identical**
to a fault-free run — every replication derives everything from
``(config, seed, replication)`` and streams in job-index order as
canonical JSON.  SIGKILL'd daemons cannot reap their shards; shards
notice the reparenting (``os.getppid()``) and exit on their own.

**Admission control.**  The queue depth is bounded: past
``max_queue_depth`` waiting campaigns the daemon *sheds* the submission
with a ``retry_after`` hint — the backlog-drain estimate from the same
:class:`~repro.experiments.scheduler.JobSecondsEstimator` model the
scheduler plans dispatch with.  Degradation is graceful the rest of the
way down too: dead shards respawn, repeatedly-dying shards are
quarantined and their key partition re-routed, and with zero healthy
shards campaigns execute inline in the daemon process.

**Fault hooks** (deterministic kill points for the soak harness): a
shard can be armed to crash after N tasks (``kill_after_tasks``), and
the daemon itself can SIGKILL its own process after recording N results
(``fault_kill_after_results``).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..core.cache import ResultCache, result_key
from ..core.serialization import result_to_dict

# repro.experiments must initialize before repro.design (the design
# library's factor builders import back into the experiment registry).
from ..experiments.scheduler import JobSecondsEstimator
from ..design.compile import compile_design
from ..design.io import design_from_dict
from ..design.model import DesignError
from ..obs.manifest import append_manifest, build_manifest
from ..resilience.checkpoint import CampaignCheckpoint
from ..resilience.log import sync
from .journal import PersistentQueue, QueuedCampaign
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    read_line,
)
from .shard import ShardManager, ShardReport, ShardTask

#: Executor idle-poll period and accept-loop timeout.
_TICK_SECONDS = 0.1

#: Campaign lifecycle states.
CAMPAIGN_STATES = ("queued", "running", "done", "cancelled", "failed")


@dataclass
class CampaignState:
    """In-memory view of one campaign (the durable truth is the spool)."""

    campaign_id: str
    payload: Dict[str, Any]
    state: str = "queued"
    recovered: bool = False
    total_jobs: int = 0
    #: Completed results by job index (canonical result documents).
    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: How many leading indexes are already streamed/persisted.
    streamed: int = 0
    error: Optional[str] = None
    wall_seconds: float = 0.0
    shard_report: Optional[ShardReport] = None
    resume: Optional[Dict[str, int]] = None

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.campaign_id,
            "state": self.state,
            "recovered": self.recovered,
            "completed": len(self.results) if self.state != "done" else self.total_jobs,
            "total": self.total_jobs,
            "error": self.error,
        }


class CampaignDaemon:
    """The service core; :meth:`serve` runs it on a Unix socket.

    All campaign/queue state is guarded by one condition variable:
    socket threads mutate under it and the executor thread waits on it.
    """

    def __init__(
        self,
        spool: Union[str, Path],
        shards: int = 2,
        max_queue_depth: int = 8,
        heartbeat_timeout: float = 30.0,
        kill_after_tasks: Optional[Dict[int, int]] = None,
        fault_kill_after_results: Optional[int] = None,
    ) -> None:
        self.spool = Path(spool)
        for sub in ("journal", "cache", "checkpoints", "results"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)
        self.queue = PersistentQueue(self.spool / "journal")
        self.cache = ResultCache(self.spool / "cache")
        self.max_queue_depth = max_queue_depth
        self.job_seconds = JobSecondsEstimator()
        self.manager = ShardManager(
            shards=shards,
            cache_root=str(self.spool / "cache"),
            heartbeat_timeout=heartbeat_timeout,
            kill_after_tasks=kill_after_tasks,
        )
        self.fault_kill_after_results = fault_kill_after_results
        self._results_recorded = 0
        self._cond = threading.Condition()
        self._campaigns: Dict[str, CampaignState] = {}
        self._active: Optional[str] = None
        self._draining = False
        self._stopping = threading.Event()
        self._request_counts: Dict[str, int] = {}
        self._executor: Optional[threading.Thread] = None
        self.started_at = time.time()
        # Journal recovery: re-register every surviving campaign.
        for queued in self.queue.pending_campaigns():
            self._campaigns[queued.campaign_id] = CampaignState(
                campaign_id=queued.campaign_id,
                payload=queued.payload,
                recovered=queued.recovered,
                total_jobs=int(queued.payload.get("jobs", 0)),
            )

    # -- paths ---------------------------------------------------------------

    def _results_path(self, campaign_id: str) -> Path:
        return self.spool / "results" / f"{campaign_id}.jsonl"

    def _checkpoint_path(self, campaign_id: str) -> Path:
        return self.spool / "checkpoints" / f"{campaign_id}.jsonl"

    @property
    def manifest_path(self) -> Path:
        return self.spool / "manifest.jsonl"

    @property
    def request_log_path(self) -> Path:
        return self.spool / "requests.jsonl"

    # -- request log ---------------------------------------------------------

    def _log_request(
        self, op: str, campaign_id: Optional[str], ok: bool, detail: str = ""
    ) -> None:
        """Append one request-log line (observability, not correctness)."""
        self._request_counts[op] = self._request_counts.get(op, 0) + 1
        record = {
            "op": op,
            "id": campaign_id,
            "ok": ok,
            "ts": round(time.time(), 3),
        }
        if detail:
            record["detail"] = detail
        with self.request_log_path.open("a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            )

    # -- admission -----------------------------------------------------------

    def _retry_after(self) -> float:
        """Backlog-drain estimate: the shed client's back-off hint."""
        with self._cond:
            backlog_jobs = sum(
                int(c.payload.get("jobs", 1)) - len(c.results)
                for c in self._campaigns.values()
                if c.state in ("queued", "running")
            )
        workers = max(1, self.manager.healthy_shards() or 1)
        return round(
            max(1.0, backlog_jobs * self.job_seconds.estimate / workers), 3
        )

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Admit (or shed) one campaign submission."""
        if self._draining or self._stopping.is_set():
            response = {
                "ok": False,
                "error": "draining",
                "retry_after": self._retry_after(),
            }
            self._log_request("submit", None, False, "draining")
            return response
        design_doc = request.get("design")
        if not isinstance(design_doc, dict):
            self._log_request("submit", None, False, "no-design")
            return {"ok": False, "error": "submit needs a 'design' document"}
        replications = request.get("replications")
        seed = int(request.get("seed", 0))
        priority = int(request.get("priority", 0))
        try:
            design = design_from_dict(design_doc)
            compiled = compile_design(
                design,
                None if replications is None else int(replications),
                seed,
            )
        except (DesignError, ValueError, TypeError) as exc:
            self._log_request("submit", None, False, "bad-design")
            return {"ok": False, "error": f"invalid design: {exc}"}
        with self._cond:
            if self.queue.pending >= self.max_queue_depth:
                response = {
                    "ok": False,
                    "error": "queue-full",
                    "retry_after": self._retry_after(),
                }
                self._log_request("submit", None, False, "queue-full")
                return response
            payload = {
                "design": design_doc,
                "replications": compiled.replications,
                "seed": seed,
                "jobs": len(compiled.jobs),
                "experiment": design.experiment_id,
            }
            queued = self.queue.submit(payload, priority=priority)
            self._campaigns[queued.campaign_id] = CampaignState(
                campaign_id=queued.campaign_id,
                payload=payload,
                total_jobs=len(compiled.jobs),
            )
            position = self.queue.pending
            self._cond.notify_all()
        self._log_request("submit", queued.campaign_id, True)
        return {
            "ok": True,
            "id": queued.campaign_id,
            "position": position,
            "jobs": len(compiled.jobs),
        }

    # -- status --------------------------------------------------------------

    def status(self, campaign_id: Optional[str] = None) -> Dict[str, Any]:
        with self._cond:
            if campaign_id is not None:
                state = self._campaigns.get(campaign_id)
                if state is None:
                    # Completed before a restart: only the spool remembers.
                    if self._results_path(campaign_id).exists():
                        self._log_request("status", campaign_id, True)
                        return {
                            "ok": True,
                            "campaign": {
                                "id": campaign_id,
                                "state": "done",
                                "archived": True,
                            },
                        }
                    self._log_request("status", campaign_id, False, "unknown")
                    return {"ok": False, "error": f"unknown campaign {campaign_id!r}"}
                self._log_request("status", campaign_id, True)
                return {"ok": True, "campaign": state.summary()}
            campaigns = [
                self._campaigns[key].summary()
                for key in sorted(self._campaigns)
            ]
            response = {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "draining": self._draining,
                "active": self._active,
                "queue": {
                    "depth": self.queue.depth,
                    "pending": self.queue.pending,
                    "max_depth": self.max_queue_depth,
                    "recovery": self.queue.recovery.to_dict(),
                },
                "shards": self.manager.probe(),
                "campaigns": campaigns,
            }
        self._log_request("status", None, True)
        return response

    # -- cancel / drain ------------------------------------------------------

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        with self._cond:
            state = self._campaigns.get(campaign_id)
            if state is None or state.state != "queued":
                self._log_request("cancel", campaign_id, False, "not-cancellable")
                return {"ok": False, "error": "not-cancellable"}
            if not self.queue.cancel(campaign_id):
                self._log_request("cancel", campaign_id, False, "not-cancellable")
                return {"ok": False, "error": "not-cancellable"}
            state.state = "cancelled"
            self._cond.notify_all()
        self._log_request("cancel", campaign_id, True)
        return {"ok": True, "id": campaign_id}

    def drain(self) -> Dict[str, Any]:
        """Stop admission, then block until the queue runs dry."""
        with self._cond:
            self._draining = True
            drained = self.queue.depth
            while self.queue.depth > 0 or self._active is not None:
                self._cond.wait(timeout=_TICK_SECONDS)
                if self._stopping.is_set():
                    break
        self._log_request("drain", None, True)
        return {"ok": True, "drained": drained}

    def shutdown(self) -> Dict[str, Any]:
        self._log_request("shutdown", None, True)
        with self._cond:
            self._stopping.set()
            self._cond.notify_all()
        return {"ok": True}

    # -- execution -----------------------------------------------------------

    def _executor_loop(self) -> None:
        while not self._stopping.is_set():
            with self._cond:
                claimed = self.queue.claim()
                if claimed is None:
                    self._cond.wait(timeout=_TICK_SECONDS)
                    continue
                state = self._campaigns[claimed.campaign_id]
                state.state = "running"
                self._active = claimed.campaign_id
                self._cond.notify_all()
            try:
                self._execute(claimed, state)
            except Exception as exc:  # noqa: BLE001 - campaign-fatal, not daemon-fatal
                with self._cond:
                    state.state = "failed"
                    state.error = f"{type(exc).__name__}: {exc}"
                    self.queue.ack(claimed.campaign_id)
                    self._cond.notify_all()
            finally:
                with self._cond:
                    self._active = None
                    self._cond.notify_all()

    def _execute(self, claimed: QueuedCampaign, state: CampaignState) -> None:
        """Run one campaign end to end (executor thread only)."""
        start = time.perf_counter()
        payload = claimed.payload
        design = design_from_dict(payload["design"])
        compiled = compile_design(
            design, int(payload["replications"]), int(payload["seed"])
        )
        keys = compiled.job_keys()
        state.total_jobs = len(compiled.jobs)

        # interval=1: every completion is an fsync'd append before the
        # next dispatch — a SIGKILL'd daemon loses at most the in-flight
        # replication, and the resume report proves it.
        checkpoint = CampaignCheckpoint(
            self._checkpoint_path(claimed.campaign_id),
            label=claimed.campaign_id,
            interval=1,
            resume=claimed.recovered,
        )

        # Cache-first pass: a recovered campaign finds its earlier work
        # here, which is exactly what makes replay cheap and
        # byte-identical.
        tasks: List[ShardTask] = []
        cache_present: List[bool] = []
        prefilled = 0
        for index, job in enumerate(compiled.jobs):
            hit = self.cache.get(job.config, job.seed, job.replication)
            cache_present.append(hit is not None)
            if hit is not None:
                with self._cond:
                    state.results[index] = result_to_dict(hit)
                checkpoint.record(keys[index])
                prefilled += 1
            else:
                tasks.append(
                    ShardTask(
                        index=index,
                        key=keys[index],
                        job=(index, job.config, job.seed, job.replication),
                    )
                )
        if claimed.recovered and checkpoint.previously_completed:
            state.resume = checkpoint.reconcile(keys, cache_present).to_dict()

        results_file = self._results_path(claimed.campaign_id).open(
            "w", encoding="utf-8"
        )
        try:
            self._stream_ready(state, results_file)

            def on_result(index: int, result) -> None:
                with self._cond:
                    state.results[index] = result_to_dict(result)
                    checkpoint.record(keys[index])
                    self._stream_ready(state, results_file)
                    self._cond.notify_all()
                self._results_recorded += 1
                self._maybe_self_kill()

            dispatch_start = time.perf_counter()
            report = self.manager.execute(
                tasks, on_result, should_abort=self._stopping.is_set
            )
            self.job_seconds.note(
                executed=report.executed,
                workers=max(1, self.manager.healthy_shards()),
                wall=time.perf_counter() - dispatch_start,
            )
            sync(results_file, self.spool / "results")
        finally:
            results_file.close()
        checkpoint.flush()

        with self._cond:
            if len(state.results) < state.total_jobs:
                # Aborted mid-campaign (shutdown): leave it claimed in the
                # journal so the next daemon recovers it.
                state.error = "interrupted"
                self._cond.notify_all()
                return
            state.state = "done"
            state.wall_seconds = time.perf_counter() - start
            state.shard_report = report
            self.queue.ack(claimed.campaign_id)
            self._cond.notify_all()
        self._write_manifest(state, report, prefilled)

    def _stream_ready(self, state: CampaignState, handle) -> None:
        """Persist the contiguous completed prefix, in job-index order."""
        while state.streamed in state.results:
            handle.write(
                json.dumps(
                    {
                        "index": state.streamed,
                        "result": state.results[state.streamed],
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
            state.streamed += 1
        handle.flush()

    def _maybe_self_kill(self) -> None:
        """Deterministic SIGKILL fault hook (soak harness seed point)."""
        if (
            self.fault_kill_after_results is not None
            and self._results_recorded >= self.fault_kill_after_results
        ):
            os.kill(os.getpid(), signal.SIGKILL)

    def _write_manifest(
        self, state: CampaignState, report: ShardReport, prefilled: int
    ) -> None:
        """Append one ``service`` manifest record for a finished campaign."""
        events = [
            {"kind": "shard-death", "action": "respawn"}
            for _ in range(report.respawns)
        ] + [
            {"kind": "shard-death", "action": "quarantine"}
            for _ in report.quarantined_shards
        ]
        resilience: Dict[str, Any] = {
            "policy": None,
            "retries": 0,
            "quarantined": len(report.quarantined_shards),
            "failures_by_kind": (
                {"shard-death": report.respawns + len(report.quarantined_shards)}
                if events
                else {}
            ),
            "cache_write_errors": 0,
            "pool_respawns": report.respawns,
            "degraded_to_serial": report.inline_fallback > 0,
            "quarantined_jobs": [],
            "events": events,
        }
        if state.resume is not None:
            resilience["resume"] = dict(state.resume)
        service_section = {
            "campaign": state.campaign_id,
            "recovered": state.recovered,
            "queue": self.queue.recovery.to_dict(),
            "shards": report.to_dict(),
            "requests": dict(sorted(self._request_counts.items())),
            "prefilled_from_cache": prefilled,
        }
        document = build_manifest(
            "service",
            state.payload.get("experiment", state.campaign_id),
            wall_seconds=state.wall_seconds,
            seed=int(state.payload.get("seed", 0)),
            replications=state.total_jobs,
            resilience=resilience,
            service=service_section,
        )
        append_manifest(self.manifest_path, document)

    # -- result streaming ----------------------------------------------------

    def iter_results(
        self, campaign_id: str, follow: bool = True
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``("header"|"result"|"done"|"error", message)`` frames.

        For a live campaign with ``follow=True`` this blocks between
        completions and ships each replication as soon as its index is
        reached (incremental streaming); for archived campaigns it
        replays the spool file.
        """
        with self._cond:
            state = self._campaigns.get(campaign_id)
        if state is None:
            path = self._results_path(campaign_id)
            if not path.exists():
                yield "error", {
                    "ok": False,
                    "error": f"unknown campaign {campaign_id!r}",
                }
                return
            yield "header", {
                "ok": True,
                "id": campaign_id,
                "state": "done",
                "archived": True,
            }
            count = 0
            with path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        yield "result", json.loads(line)
                        count += 1
            yield "done", {"done": True, "count": count}
            return

        with self._cond:
            header = {
                "ok": True,
                "id": campaign_id,
                "state": state.state,
                "total": state.total_jobs,
            }
        yield "header", header
        position = 0
        while True:
            # Collect under the lock, send outside it: a slow client must
            # never stall the executor on a held condition variable.
            batch: List[Dict[str, Any]] = []
            with self._cond:
                while position in state.results:
                    batch.append(
                        {"index": position, "result": state.results[position]}
                    )
                    position += 1
                current = state.state
                total = state.total_jobs
                error = state.error
                finished = current in ("cancelled", "failed") or (
                    current == "done" and position >= total
                )
                if not batch and not finished and follow:
                    if self._stopping.is_set():
                        finished = True
                    else:
                        self._cond.wait(timeout=_TICK_SECONDS)
            for message in batch:
                yield "result", message
            if finished or not follow:
                break
        final = {"done": True, "count": position, "state": current}
        if error:
            final["error"] = error
        yield "done", final

    # -- socket server -------------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        buffer = bytearray()
        try:
            try:
                request = read_line(conn, buffer)
            except ProtocolError as exc:
                conn.sendall(encode({"ok": False, "error": str(exc)}))
                return
            if not request:
                return
            op = request.get("op")
            if op == "submit":
                conn.sendall(encode(self.submit(request)))
            elif op == "status":
                conn.sendall(encode(self.status(request.get("id"))))
            elif op == "cancel":
                campaign_id = str(request.get("id", ""))
                conn.sendall(encode(self.cancel(campaign_id)))
            elif op == "drain":
                conn.sendall(encode(self.drain()))
            elif op == "shutdown":
                conn.sendall(encode(self.shutdown()))
            elif op == "results":
                campaign_id = str(request.get("id", ""))
                follow = bool(request.get("follow", True))
                ok = True
                for _, message in self.iter_results(campaign_id, follow=follow):
                    conn.sendall(encode(message))
                    ok = ok and message.get("ok", True)
                self._log_request("results", campaign_id, ok)
            else:
                conn.sendall(
                    encode({"ok": False, "error": f"unknown op {op!r}"})
                )
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; the daemon does not care
        finally:
            conn.close()

    @staticmethod
    def _claim_socket(socket_path: Path) -> socket.socket:
        """Bind the Unix socket, reclaiming a stale path from a dead daemon."""
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(str(socket_path))
        except OSError:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(str(socket_path))
            except OSError:
                # Nothing listening: a SIGKILL'd daemon left the path.
                socket_path.unlink(missing_ok=True)
                server.bind(str(socket_path))
            else:
                probe.close()
                server.close()
                raise RuntimeError(
                    f"another daemon is already serving {socket_path}"
                )
            finally:
                probe.close()
        return server

    def serve(self, socket_path: Union[str, Path]) -> None:
        """Run the daemon until ``shutdown`` (blocks the calling thread)."""
        socket_path = Path(socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        server = self._claim_socket(socket_path)
        server.listen(16)
        server.settimeout(_TICK_SECONDS)
        self.manager.start()
        self._executor = threading.Thread(
            target=self._executor_loop, name="campaign-executor", daemon=True
        )
        self._executor.start()
        handlers: List[threading.Thread] = []
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                thread = threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                )
                thread.start()
                handlers.append(thread)
                handlers = [t for t in handlers if t.is_alive()]
        finally:
            server.close()
            socket_path.unlink(missing_ok=True)
            self.close()

    def close(self) -> None:
        """Release every resource (idempotent)."""
        self._stopping.set()
        with self._cond:
            self._cond.notify_all()
        if self._executor is not None:
            self._executor.join(timeout=10.0)
            self._executor = None
        self.manager.close()
        self.queue.close()


__all__ = ["CAMPAIGN_STATES", "CampaignDaemon", "CampaignState"]
