"""Fault-tolerant campaign execution.

A paper figure is hundreds of long stochastic replications; at
production scale a crashed worker, a hung replication, or a corrupted
cache entry must cost one retry, not the whole campaign.  This package
supplies the three pieces the execution stack threads together:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: per-task
  timeouts and bounded retries with exponential backoff and
  *deterministic* jitter (reproducible schedules from a seed);
* :class:`~repro.core.parallel.WorkerPool` — the one executor — applies
  that policy: crashed-worker detection and respawn, per-task timeout
  enforcement, task quarantine after repeated failures, and graceful
  degradation to inline execution once every worker has spent its
  respawn budget, reporting every decision as a :class:`FailureEvent`
  in a :class:`SupervisionReport` (both defined with the policy);
* :mod:`repro.resilience.checkpoint` — :class:`CampaignCheckpoint`:
  periodic atomic snapshots of completed replication keys, reconciled
  against the result cache on ``--resume`` so an interrupted campaign
  restarts only missing work;
* :mod:`repro.resilience.log` — the one durable JSONL log (atomic
  rewrite, fsync'd append, torn-tail-aware replay) under both the
  checkpoint and the campaign daemon's journal.

Results stay byte-identical to fault-free runs: supervision only decides
*where and when* a replication executes, never *what* it computes — each
replication derives everything from ``(config, seed, replication)``.
Every failure, retry, and quarantine event flows into
:mod:`repro.obs` metrics and run manifests.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CampaignCheckpoint,
    CheckpointLoad,
    ResumeReport,
    default_checkpoint_path,
    load_checkpoint,
    load_checkpoint_report,
)
from .log import fsync_directory
from .policy import FailureEvent, RetryPolicy, SupervisionReport

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CampaignCheckpoint",
    "CheckpointLoad",
    "FailureEvent",
    "ResumeReport",
    "RetryPolicy",
    "SupervisionReport",
    "default_checkpoint_path",
    "fsync_directory",
    "load_checkpoint",
    "load_checkpoint_report",
]
