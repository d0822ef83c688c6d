"""Campaign checkpoint/resume.

A *campaign checkpoint* is a small durable record of which replication
keys (see :func:`repro.core.cache.result_key`) a campaign has completed
so far.  The scheduler records every completion and flushes the file
every ``interval`` completions plus once at the end — and, crucially, on
abort — so a killed campaign leaves a fresh record of its progress
behind.

On ``--resume`` the checkpoint is *reconciled* against the
:class:`~repro.core.cache.ResultCache`: a key recorded as completed is
only trusted if its cache entry is still present and passes the cache's
checksum verification; anything missing or corrupt is simply re-run.
The checkpoint never stores results — the cache is the single source of
truth for data, the checkpoint only for progress accounting (and for
reporting ``resumed / lost / fresh`` splits in the run manifest).

Durability (format v2): the file is JSONL — a header line followed by
``{"completed": [...]}`` batch lines, written through
:mod:`repro.resilience.log`.  The first flush is an atomic rewrite
(:func:`~repro.resilience.log.write_atomic`); subsequent flushes append
one fsync'd batch line, which is what lets the campaign service
checkpoint thousands of completions without rewriting the whole snapshot
each time.  A crash mid-append leaves at most one torn trailing line,
which :func:`load_checkpoint` skips (and reports) instead of discarding
the file.  Legacy v1 single-document snapshots are still readable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from .log import append_line, open_append, replay, write_atomic

#: Bump when the checkpoint document layout changes.
#: v2: JSONL (header line + appended completion batches), fsync'd writes.
CHECKPOINT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ResumeReport:
    """How a resumed campaign's job list reconciled against the cache."""

    #: Keys the checkpoint recorded as completed that are part of this run.
    previously_completed: int
    #: Of those, how many were actually served from the cache.
    resumed_from_cache: int
    #: Recorded as completed but missing/corrupt in the cache — re-run.
    lost_entries: int
    #: Jobs never completed before (fresh work).
    fresh: int

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)

    def format(self) -> str:
        """One-line summary for CLI reporting."""
        return (
            f"resume: {self.resumed_from_cache} replications restored from "
            f"cache, {self.lost_entries} lost, {self.fresh} fresh"
        )


@dataclass(frozen=True)
class CheckpointLoad:
    """Outcome of reading one checkpoint file.

    ``keys`` is ``None`` when the file is missing or unusable (resuming
    then just means re-checking the cache for everything).  ``torn_line``
    reports that a trailing partial batch line — the footprint of a crash
    mid-append — was skipped; everything before it was recovered.
    """

    keys: Optional[List[str]]
    torn_line: bool = False
    legacy: bool = False

    @property
    def usable(self) -> bool:
        return self.keys is not None


class CampaignCheckpoint:
    """Periodic durable record of completed replication keys.

    ``resume=True`` loads any existing snapshot at ``path`` (tolerating a
    corrupt/truncated file — it is treated as empty, since the cache, not
    the checkpoint, holds the actual results); ``resume=False`` starts a
    fresh campaign and overwrites on first flush.
    """

    def __init__(
        self,
        path: Union[str, Path],
        label: str = "",
        interval: int = 20,
        resume: bool = False,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.path = Path(path)
        self.label = label
        self.interval = interval
        self.completed: Set[str] = set()
        #: Keys the loaded (pre-resume) snapshot reported as completed.
        self.previously_completed: Set[str] = frozenset()
        #: True when the loaded snapshot carried a torn trailing line
        #: (crash mid-append); surfaced so run manifests can record it.
        self.load_torn_line = False
        self.flushes = 0
        self._dirty = 0
        #: Keys recorded since the last flush, in record order — the next
        #: appended batch.
        self._pending: List[str] = []
        #: The next flush must atomically rewrite the whole file instead
        #: of appending (fresh campaign, legacy v1 file, or a loaded file
        #: whose tail is torn and would corrupt appended lines).
        self._rewrite_needed = True
        if resume:
            loaded = load_checkpoint_report(self.path)
            self.load_torn_line = loaded.torn_line
            if loaded.usable:
                self.previously_completed = frozenset(loaded.keys)
                self.completed.update(loaded.keys)
                self._rewrite_needed = loaded.legacy or loaded.torn_line

    def record(self, key: str) -> None:
        """Mark one replication key completed; flush every ``interval``."""
        if key in self.completed:
            return
        self.completed.add(key)
        self._pending.append(key)
        self._dirty += 1
        if self._dirty >= self.interval:
            self.flush()

    def _rewrite(self) -> None:
        """Atomically replace the file with a header + one full batch."""
        header = {
            "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
            "label": self.label,
        }
        lines = [json.dumps(header, sort_keys=True)]
        if self.completed:
            lines.append(
                json.dumps({"completed": sorted(self.completed)}, sort_keys=True)
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, lines)
        self._rewrite_needed = False

    def flush(self) -> Optional[Path]:
        """Durably persist progress (no-op when unchanged)."""
        if self._dirty == 0 and self.flushes > 0:
            return None
        if self._rewrite_needed or not self.path.exists():
            self._rewrite()
        elif self._pending:
            # One fsync'd batch line with the keys pending flush.
            line = json.dumps({"completed": self._pending}, sort_keys=True)
            with open_append(self.path) as handle:
                append_line(handle, line)
        self._dirty = 0
        self._pending = []
        self.flushes += 1
        return self.path

    def reconcile(self, job_keys: List[str], cache_present: List[bool]) -> ResumeReport:
        """Split this run's jobs into resumed / lost / fresh.

        ``cache_present[i]`` says whether job ``i`` was actually served
        from the cache this run (post checksum verification).
        """
        if len(job_keys) != len(cache_present):
            raise ValueError("job_keys and cache_present must align")
        previously = 0
        resumed = 0
        lost = 0
        for key, present in zip(job_keys, cache_present):
            if key in self.previously_completed:
                previously += 1
                if present:
                    resumed += 1
                else:
                    lost += 1
        return ResumeReport(
            previously_completed=previously,
            resumed_from_cache=resumed,
            lost_entries=lost,
            fresh=len(job_keys) - previously,
        )


def _valid_keys(completed: Any) -> Optional[List[str]]:
    """``completed`` as a list of key strings, or ``None`` when malformed."""
    if not isinstance(completed, list) or not all(
        isinstance(key, str) for key in completed
    ):
        return None
    return completed


def load_checkpoint_report(path: Union[str, Path]) -> CheckpointLoad:
    """Read one checkpoint file, tolerating a torn trailing line.

    A missing file, torn/malformed header, wrong schema version, or a
    malformed batch *before* the final line all make the file unusable
    (``keys=None``) — resuming from a damaged checkpoint just means
    re-checking the cache for everything, never crashing.  A torn *final*
    line — the only damage a crashed append can cause — is skipped and
    reported while every earlier batch is recovered.
    """
    try:
        replayed = replay(path)
    except OSError:
        return CheckpointLoad(keys=None)
    if replayed.bad_lines:
        return CheckpointLoad(keys=None)
    lines = replayed.records
    if not lines:
        # Legacy v1 is one JSON document without a trailing newline.
        try:
            lines = [json.loads(replayed.tail)]
        except ValueError:
            return CheckpointLoad(keys=None)
    header = lines[0]
    if not isinstance(header, dict):
        return CheckpointLoad(keys=None)
    schema = header.get("checkpoint_schema")
    if schema == 1:
        # Legacy v1: the whole file is one JSON document.
        return CheckpointLoad(keys=_valid_keys(header.get("completed")), legacy=True)
    if schema != CHECKPOINT_SCHEMA_VERSION:
        return CheckpointLoad(keys=None)
    keys: List[str] = []
    seen: Set[str] = set()
    for batch in lines[1:]:
        batch_keys = (
            _valid_keys(batch.get("completed"))
            if isinstance(batch, dict)
            else None
        )
        if batch_keys is None:
            return CheckpointLoad(keys=None)
        for key in batch_keys:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    # A torn final line (crash mid-append) is skipped and reported.
    return CheckpointLoad(keys=keys, torn_line=replayed.torn)


def load_checkpoint(path: Union[str, Path]) -> Optional[List[str]]:
    """Completed keys of the snapshot at ``path``; ``None`` when unusable.

    Convenience wrapper over :func:`load_checkpoint_report` (which also
    says whether a torn trailing line was skipped).
    """
    return load_checkpoint_report(path).keys


def default_checkpoint_path(cache_root: Union[str, Path], label: str) -> Path:
    """Conventional checkpoint location for one campaign label."""
    safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in label)
    return Path(cache_root) / "checkpoints" / f"{safe or 'campaign'}.json"


__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CampaignCheckpoint",
    "CheckpointLoad",
    "ResumeReport",
    "default_checkpoint_path",
    "load_checkpoint",
    "load_checkpoint_report",
]
