"""Tests for the campaign daemon's crash-safe persistent queue.

Every scenario here is a crash footprint the journal must survive:
torn trailing writes, lost acks (claim without ack -> recovered
in-flight), and rotation interrupted at each window (tmp left behind,
both segments present).  All tests are pure filesystem -- tier-1 fast.
"""

from __future__ import annotations

import json

import pytest

from repro.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    PersistentQueue,
    QueuedCampaign,
    RecoveryReport,
)


def payload(tag: str) -> dict:
    return {"design": {"id": tag}, "jobs": 2, "seed": 7}


def segment_names(root) -> list:
    return sorted(p.name for p in root.iterdir())


class TestQueueBasics:
    def test_submit_claim_ack_round_trip(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        campaign = queue.submit(payload("a"))
        assert campaign.campaign_id == "c000000"
        assert queue.depth == 1 and queue.pending == 1

        claimed = queue.claim()
        assert claimed is campaign and claimed.claimed
        assert queue.depth == 1 and queue.pending == 0
        assert queue.claim() is None  # nothing else unclaimed

        queue.ack(claimed.campaign_id)
        assert queue.depth == 0
        queue.close()

    def test_priority_then_fifo_ordering(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        low_first = queue.submit(payload("low-1"), priority=5)
        high = queue.submit(payload("high"), priority=0)
        low_second = queue.submit(payload("low-2"), priority=5)
        order = [queue.claim().campaign_id for _ in range(3)]
        assert order == [
            high.campaign_id,
            low_first.campaign_id,
            low_second.campaign_id,
        ]
        queue.close()

    def test_duplicate_campaign_id_rejected(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        queue.submit(payload("a"), campaign_id="dup")
        with pytest.raises(JournalError, match="already queued"):
            queue.submit(payload("b"), campaign_id="dup")
        queue.close()

    def test_ack_unknown_campaign_rejected(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        with pytest.raises(JournalError, match="unknown campaign"):
            queue.ack("ghost")
        queue.close()

    def test_cancel_only_while_queued(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        queued = queue.submit(payload("a"))
        running = queue.submit(payload("b"))
        assert queue.claim() is queued
        assert not queue.cancel(queued.campaign_id)  # claimed -> running
        assert queue.cancel(running.campaign_id)
        assert not queue.cancel("ghost")
        assert queue.depth == 1  # only the claimed one remains
        queue.close()

    def test_pending_campaigns_in_claim_order(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        late = queue.submit(payload("late"), priority=9)
        early = queue.submit(payload("early"), priority=1)
        assert [c.campaign_id for c in queue.pending_campaigns()] == [
            early.campaign_id,
            late.campaign_id,
        ]
        queue.close()


class TestRecovery:
    def test_pending_campaign_survives_reopen(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            submitted = queue.submit(payload("a"), priority=3)

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.pending == 1
        assert reopened.recovery.in_flight == 0
        survivor = reopened.get(submitted.campaign_id)
        assert survivor is not None
        assert survivor.priority == 3
        assert survivor.payload == payload("a")
        assert not survivor.recovered
        reopened.close()

    def test_claimed_unacked_campaign_recovers_as_in_flight(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("a"))
            queue.claim()  # daemon "dies" before ack

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.in_flight == 1
        claimed = reopened.claim()
        assert claimed is not None and claimed.recovered
        reopened.close()

    def test_acked_campaign_never_replays(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("a"))
            queue.claim()
            queue.ack("c000000")
            queue.submit(payload("b"))

        reopened = PersistentQueue(tmp_path)
        assert reopened.depth == 1
        assert reopened.get("c000000") is None
        assert reopened.get("c000001") is not None
        reopened.close()

    def test_recovered_in_flight_claims_before_fresh_work(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            first = queue.submit(payload("old"))
            queue.claim()
            fresh = queue.submit(payload("new"))

        reopened = PersistentQueue(tmp_path)
        order = [reopened.claim().campaign_id for _ in range(2)]
        assert order == [first.campaign_id, fresh.campaign_id]
        reopened.close()

    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("a"))
            segment = tmp_path / "journal-00000000.jsonl"
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"journal_schema":1,"record":"sub')  # no newline

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.torn_lines == 1
        assert reopened.recovery.bad_lines == 0
        assert reopened.depth == 1
        reopened.close()

    def test_submit_after_torn_tail_survives_next_restart(self, tmp_path):
        # Regression: a record appended after a torn tail must not be
        # glued onto the fragment and lost at the following restart.
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("a"))
        segment = tmp_path / "journal-00000000.jsonl"
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"record":"sub')  # crash mid-append

        with PersistentQueue(tmp_path) as recovered:
            assert recovered.recovery.torn_lines == 1
            recovered.submit(payload("b"))

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.bad_lines == 0
        assert reopened.recovery.torn_lines == 0
        assert [c.campaign_id for c in reopened.pending_campaigns()] == [
            "c000000",
            "c000001",
        ]
        reopened.close()

    def test_bad_mid_file_lines_skipped_and_counted(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("a"))
            segment = tmp_path / "journal-00000000.jsonl"
        text = segment.read_text(encoding="utf-8")
        corrupted = "not json at all\n" + '["a","list"]\n' + text
        segment.write_text(corrupted, encoding="utf-8")

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.bad_lines == 2
        assert reopened.recovery.torn_lines == 0
        assert reopened.depth == 1  # the good record still replays
        reopened.close()

    def test_unknown_record_kind_counts_as_bad_line(self, tmp_path):
        segment = tmp_path / "journal-00000000.jsonl"
        segment.write_text(
            json.dumps(
                {
                    "journal_schema": JOURNAL_SCHEMA_VERSION,
                    "record": "explode",
                    "id": "x",
                }
            )
            + "\n",
            encoding="utf-8",
        )
        queue = PersistentQueue(tmp_path)
        assert queue.recovery.bad_lines == 1
        assert queue.depth == 0
        queue.close()

    def test_recovery_report_shape(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        report = queue.recovery.to_dict()
        assert report == {
            "pending": 0,
            "in_flight": 0,
            "torn_lines": 0,
            "bad_lines": 0,
            "segments_swept": 0,
            "replayed_records": 0,
        }
        assert isinstance(queue.recovery, RecoveryReport)
        queue.close()


class TestRotation:
    def test_rotation_compacts_dead_records(self, tmp_path):
        queue = PersistentQueue(tmp_path, rotate_dead_records=2)
        survivor = queue.submit(payload("live"))
        for _ in range(2):
            queue.submit(payload("dead"))
            queue.claim()  # claims the oldest unclaimed -> survivor first
        # Ack the two non-survivor campaigns to cross the rotation bar.
        queue.ack("c000001")
        queue.ack("c000002")
        assert segment_names(tmp_path) == ["journal-00000001.jsonl"]
        queue.close()

        reopened = PersistentQueue(tmp_path)
        assert reopened.depth == 1
        recovered = reopened.get(survivor.campaign_id)
        assert recovered is not None and recovered.recovered
        assert reopened.recovery.replayed_records == 2  # submit + claim
        reopened.close()

    def test_rotation_preserves_claimed_state(self, tmp_path):
        queue = PersistentQueue(tmp_path)
        queue.submit(payload("running"))
        queue.claim()
        queue.submit(payload("waiting"))
        queue.rotate()
        queue.close()

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.in_flight == 1
        assert reopened.recovery.pending == 1
        reopened.close()

    def test_crashed_rotation_tmp_file_swept(self, tmp_path):
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("a"))
        (tmp_path / ".tmp-journal-00000001").write_text(
            "half-written rotation", encoding="utf-8"
        )
        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.segments_swept == 1
        assert reopened.depth == 1
        assert segment_names(tmp_path) == ["journal-00000000.jsonl"]
        reopened.close()

    def test_crash_between_rename_and_unlink_keeps_newest(self, tmp_path):
        # Simulate the rotation crash window where both segments exist:
        # the new (compacted) segment must win and the old one is swept.
        with PersistentQueue(tmp_path) as queue:
            queue.submit(payload("stale"))
        old = (tmp_path / "journal-00000000.jsonl").read_text(encoding="utf-8")
        new_segment = tmp_path / "journal-00000001.jsonl"
        new_segment.write_text(
            json.dumps(
                {
                    "journal_schema": JOURNAL_SCHEMA_VERSION,
                    "record": "submit",
                    "id": "compacted",
                    "seq": 5,
                    "priority": 0,
                    "payload": payload("compacted"),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n",
            encoding="utf-8",
        )
        assert old  # the stale segment is still on disk

        reopened = PersistentQueue(tmp_path)
        assert reopened.recovery.segments_swept == 1
        assert reopened.get("compacted") is not None
        assert reopened.get("c000000") is None  # stale segment discarded
        assert segment_names(tmp_path) == ["journal-00000001.jsonl"]
        # New submissions continue from the compacted sequence space.
        fresh = reopened.submit(payload("fresh"))
        assert fresh.seq == 6
        reopened.close()

    def test_rotate_dead_records_validation(self, tmp_path):
        with pytest.raises(ValueError, match="rotate_dead_records"):
            PersistentQueue(tmp_path, rotate_dead_records=0)


def test_queued_campaign_sort_key():
    a = QueuedCampaign("a", priority=1, payload={}, seq=9)
    b = QueuedCampaign("b", priority=0, payload={}, seq=10)
    assert sorted([a, b], key=QueuedCampaign.sort_key)[0] is b
