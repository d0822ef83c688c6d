"""Crash-safe persistent priority queue for the campaign daemon.

The queue is an append-only JSONL *journal*: one record per line, four
record kinds —

``submit``
    A new campaign enters the queue (payload, priority, id).  fsync'd
    before the daemon acknowledges the submission to the client, so an
    accepted campaign survives any crash.
``claim``
    The executor started a campaign.  A ``claim`` without a matching
    ``ack`` marks the campaign *in-flight*; startup recovery re-queues it
    ahead of everything else and flags it ``recovered`` so the rerun is
    reconciled against the result cache and its
    :class:`~repro.resilience.CampaignCheckpoint` instead of recomputed.
``ack``
    The campaign completed and its results are durably stored.  fsync'd —
    an acked campaign is never replayed.
``cancel``
    A queued campaign was withdrawn before execution.

Dead records (acked/cancelled) accumulate; once they outnumber
``rotate_dead_records`` the journal *rotates*: live records are compacted
into a new segment file (``journal-<seq+1>.jsonl``) written atomically
(tmp + fsync + rename + directory fsync) before the old segment is
unlinked.  All file I/O goes through :mod:`repro.resilience.log`.  A
crash at any point leaves either the old segment, both segments, or the
new segment — :meth:`PersistentQueue.open` keeps the
highest-sequence complete segment and sweeps the rest, so recovery is
unambiguous.

Replay tolerates exactly the damage a crash can cause: a torn trailing
line (the write that was in flight) is skipped and counted, and cut
away before the next append so a new record is never glued onto it.
Torn or malformed lines *before* the tail are counted as ``bad_lines``
and skipped too — losing an ``ack`` only means one campaign re-runs
against a warm cache, never wrong results.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..resilience.log import (
    Replay,
    append_line,
    fsync_directory,
    open_append,
    replay,
    write_atomic,
)

#: Journal format version, embedded in every record.
JOURNAL_SCHEMA_VERSION = 1

#: Valid record kinds.
RECORD_KINDS = ("submit", "claim", "ack", "cancel")

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".jsonl"
_TMP_PREFIX = ".tmp-"


class JournalError(RuntimeError):
    """The journal directory is unusable (not a crash footprint)."""


@dataclass
class QueuedCampaign:
    """One submitted campaign as the queue tracks it."""

    campaign_id: str
    priority: int
    payload: Dict[str, Any]
    seq: int
    claimed: bool = False
    #: True when this campaign was claimed by a previous daemon process
    #: that died before acking — replay must reconcile, not recompute.
    recovered: bool = False

    def sort_key(self) -> Tuple[int, int]:
        """Lower priority number first; FIFO within a priority."""
        return (self.priority, self.seq)


@dataclass
class RecoveryReport:
    """What startup replay found — recorded in the daemon's manifests."""

    pending: int = 0
    in_flight: int = 0
    torn_lines: int = 0
    bad_lines: int = 0
    segments_swept: int = 0
    replayed_records: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


def _segment_path(root: Path, seq: int) -> Path:
    return root / f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def _segment_seq(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def _line(kind: str, campaign_id: str, **fields: Any) -> str:
    """One journal record, serialized as its JSONL line."""
    record = {
        "journal_schema": JOURNAL_SCHEMA_VERSION,
        "record": kind,
        "id": campaign_id,
        **fields,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _submit_line(campaign: QueuedCampaign) -> str:
    return _line(
        "submit",
        campaign.campaign_id,
        seq=campaign.seq,
        priority=campaign.priority,
        payload=campaign.payload,
    )


class PersistentQueue:
    """Crash-safe priority queue of campaign submissions (see module doc).

    Not thread-safe by itself — the daemon serializes access behind its
    own lock (submissions arrive on socket threads, claims/acks on the
    executor thread).
    """

    def __init__(
        self,
        root: Union[str, Path],
        rotate_dead_records: int = 128,
    ) -> None:
        if rotate_dead_records < 1:
            raise ValueError(
                f"rotate_dead_records must be >= 1, got {rotate_dead_records}"
            )
        self.root = Path(root)
        self.rotate_dead_records = rotate_dead_records
        self.recovery = RecoveryReport()
        #: In-memory view rebuilt from replay.
        self._campaigns: Dict[str, QueuedCampaign] = {}
        self._next_seq = 0
        self._dead_records = 0
        self._segment = 0
        self._handle = None
        #: Min-heap of (priority, seq, campaign_id) over unclaimed work.
        self._ready: List[Tuple[int, int, str]] = []
        self._open()

    # -- startup / recovery --------------------------------------------------

    def _open(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        segments: List[Tuple[int, Path]] = []
        for path in self.root.iterdir():
            if path.name.startswith(_TMP_PREFIX):
                path.unlink(missing_ok=True)
                self.recovery.segments_swept += 1
                continue
            seq = _segment_seq(path)
            if seq is not None:
                segments.append((seq, path))
        segments.sort()
        if not segments:
            segments.append((0, _segment_path(self.root, 0)))
            segments[0][1].touch()
        # Keep the newest complete segment; older ones are leftovers
        # of a rotation that crashed between rename and unlink.
        self._segment, active = segments[-1]
        for _, stale in segments[:-1]:
            stale.unlink(missing_ok=True)
            self.recovery.segments_swept += 1
        # Makes the sweep, or a first segment's name, durable.
        fsync_directory(self.root)
        self._handle = open_append(active, self._replay(active))
        for campaign in self._campaigns.values():
            if campaign.claimed:
                campaign.recovered = True
                self.recovery.in_flight += 1
            self.recovery.pending += 0 if campaign.claimed else 1
        # Recovered in-flight campaigns re-enter the ready heap FIRST
        # (they were already started once) by keeping their original
        # priority/seq; claimed state is cleared so claim() re-issues.
        for campaign in self._campaigns.values():
            campaign.claimed = False
            heapq.heappush(
                self._ready,
                (campaign.priority, campaign.seq, campaign.campaign_id),
            )

    def _replay(self, path: Path) -> Replay:
        replayed = replay(path)
        self.recovery.torn_lines += int(replayed.torn)
        self.recovery.bad_lines += len(replayed.bad_lines)
        for record in replayed.records:
            if not isinstance(record, dict):
                self.recovery.bad_lines += 1
                continue
            self._apply(record)
            self.recovery.replayed_records += 1
        return replayed

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("record")
        campaign_id = record.get("id")
        if kind not in RECORD_KINDS or not isinstance(campaign_id, str):
            self.recovery.bad_lines += 1
            return
        campaigns = self._campaigns
        if kind == "submit":
            payload = record.get("payload")
            priority = record.get("priority", 0)
            seq = record.get("seq")
            if not isinstance(payload, dict) or not isinstance(seq, int):
                self.recovery.bad_lines += 1
                return
            campaigns[campaign_id] = QueuedCampaign(
                campaign_id=campaign_id,
                priority=int(priority),
                payload=payload,
                seq=seq,
            )
            self._next_seq = max(self._next_seq, seq + 1)
        elif kind == "claim":
            if campaign_id in campaigns:
                campaigns[campaign_id].claimed = True
        elif kind in ("ack", "cancel"):
            campaigns.pop(campaign_id, None)
            self._dead_records += 1

    # -- queue API -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Campaigns waiting or running (submitted, not yet acked)."""
        return len(self._campaigns)

    @property
    def pending(self) -> int:
        """Campaigns waiting to be claimed."""
        return len(self.pending_campaigns())

    def pending_campaigns(self) -> List[QueuedCampaign]:
        """Unclaimed campaigns in claim order."""
        return sorted(
            (c for c in self._campaigns.values() if not c.claimed),
            key=QueuedCampaign.sort_key,
        )

    def get(self, campaign_id: str) -> Optional[QueuedCampaign]:
        return self._campaigns.get(campaign_id)

    def submit(
        self,
        payload: Dict[str, Any],
        priority: int = 0,
        campaign_id: Optional[str] = None,
    ) -> QueuedCampaign:
        """Durably enqueue one campaign; returns its queue record."""
        seq = self._next_seq
        self._next_seq += 1
        if campaign_id is None:
            campaign_id = f"c{seq:06d}"
        if campaign_id in self._campaigns:
            raise JournalError(f"campaign id {campaign_id!r} already queued")
        campaign = QueuedCampaign(
            campaign_id=campaign_id,
            priority=priority,
            payload=payload,
            seq=seq,
        )
        append_line(self._handle, _submit_line(campaign))
        self._campaigns[campaign_id] = campaign
        heapq.heappush(self._ready, (priority, seq, campaign_id))
        return campaign

    def claim(self) -> Optional[QueuedCampaign]:
        """Highest-priority unclaimed campaign (marks it in-flight)."""
        while self._ready:
            _, _, campaign_id = heapq.heappop(self._ready)
            campaign = self._campaigns.get(campaign_id)
            if campaign is None or campaign.claimed:
                continue  # acked/cancelled/claimed since push
            append_line(self._handle, _line("claim", campaign_id))
            campaign.claimed = True
            return campaign
        return None

    def ack(self, campaign_id: str) -> None:
        """Durably mark one campaign complete; it will never replay."""
        if campaign_id not in self._campaigns:
            raise JournalError(f"unknown campaign {campaign_id!r}")
        self._retire("ack", campaign_id)

    def cancel(self, campaign_id: str) -> bool:
        """Withdraw a queued campaign; ``False`` when running/unknown."""
        campaign = self._campaigns.get(campaign_id)
        if campaign is None or campaign.claimed:
            return False
        self._retire("cancel", campaign_id)
        return True

    # -- rotation ------------------------------------------------------------

    def _retire(self, kind: str, campaign_id: str) -> None:
        """Durably drop one campaign (ack/cancel); rotate past the bar."""
        append_line(self._handle, _line(kind, campaign_id))
        self._campaigns.pop(campaign_id, None)
        self._dead_records += 1
        if self._dead_records >= self.rotate_dead_records:
            self.rotate()

    def rotate(self) -> Path:
        """Compact live records into a new segment, atomically.

        Write order makes every crash window recoverable: the new
        segment is complete (fsync'd) and *named* (rename + directory
        fsync) before the old one is unlinked, and :meth:`_open` always
        prefers the highest-sequence segment.
        """
        new_seq = self._segment + 1
        live = sorted(self._campaigns.values(), key=lambda c: c.seq)
        target = _segment_path(self.root, new_seq)
        write_atomic(
            target,
            [_submit_line(campaign) for campaign in live]
            + [_line("claim", c.campaign_id) for c in live if c.claimed],
        )
        self._handle.close()
        self._handle = open_append(target)
        _segment_path(self.root, self._segment).unlink(missing_ok=True)
        fsync_directory(self.root)
        self._segment = new_seq
        self._dead_records = 0
        return target

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "PersistentQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "PersistentQueue",
    "QueuedCampaign",
    "RecoveryReport",
    "RECORD_KINDS",
]
