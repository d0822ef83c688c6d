"""Tests for the campaign daemon: protocol framing, sharding, admission
control, manifest schema, and (``service``-marked) end-to-end runs over
the Unix socket.

The unmarked tests exercise the daemon's request methods directly --
no socket, no shard processes -- so they stay in the tier-1 budget.
The ``service``-marked tests serve a real daemon in a thread and drive
it through :class:`repro.service.ServiceClient`, including the headline
invariant: a recovered campaign's result stream is byte-identical to the
original run.  The full kill -9 soak lives in ``repro.service.soak``.
"""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.parallel import run_indexed_job
from repro.core.serialization import result_to_dict

# repro.experiments must initialize before repro.design (the design
# library's factor builders import back into the experiment registry).
import repro.experiments  # noqa: F401

from repro.design.compile import compile_design
from repro.design.io import design_from_dict
from repro.obs.manifest import (
    build_manifest,
    read_manifests,
    validate_manifest,
)
from repro.service import (
    CampaignDaemon,
    PersistentQueue,
    ServiceClient,
    ServiceError,
    route_key,
)
from repro.service.__main__ import parse_kill_shard
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    encode,
    read_line,
    read_lines,
)

#: Two jobs (one design point, two replications) at a small population:
#: fast enough for tier-1-adjacent service tests, deterministic enough
#: for byte-identity checks.
SMALL_DESIGN = {
    "design": {
        "id": "svc-test",
        "title": "service unit campaign",
        "label": "{virus}",
        "replications": 2,
    },
    "factor": [
        {"name": "virus", "levels": [1]},
        {"name": "population", "levels": [100]},
        {"name": "duration", "levels": [3.0]},
    ],
}
SMALL_SEED = 42
SMALL_JOBS = 2


def expected_result_lines(seed: int = SMALL_SEED) -> list:
    """The canonical result stream a fault-free campaign must produce."""
    compiled = compile_design(design_from_dict(SMALL_DESIGN), None, seed)
    lines = []
    for index, job in enumerate(compiled.jobs):
        _, result = run_indexed_job(
            (index, job.config, job.seed, job.replication)
        )
        lines.append(
            json.dumps(
                {"index": index, "result": result_to_dict(result)},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return lines


# ---------------------------------------------------------------------------
# protocol framing


class TestProtocol:
    def test_encode_is_canonical(self):
        assert encode({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'

    def test_read_line_reassembles_partial_frames(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b'{"op":"st')
            left.sendall(b'atus"}\n{"op":')
            buffer = bytearray()
            assert read_line(right, buffer) == {"op": "status"}
            # The tail of the second frame is still buffered.
            left.sendall(b'"drain"}\n')
            assert read_line(right, buffer) == {"op": "drain"}
        finally:
            left.close()
            right.close()

    def test_read_line_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_line(right, bytearray()) is None
        finally:
            right.close()

    def test_read_line_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        left.sendall(b'{"op":"trunc')
        left.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_line(right, bytearray())
        finally:
            right.close()

    def test_read_line_rejects_bad_json_and_non_objects(self):
        for frame, match in ((b"not json\n", "bad JSON"), (b"[1,2]\n", "object")):
            left, right = socket.socketpair()
            try:
                left.sendall(frame)
                with pytest.raises(ProtocolError, match=match):
                    read_line(right, bytearray())
            finally:
                left.close()
                right.close()

    def test_read_line_oversized_buffer_rejected(self):
        left, right = socket.socketpair()
        try:
            buffer = bytearray(b"x" * (MAX_REQUEST_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                read_line(right, buffer)
        finally:
            left.close()
            right.close()

    def test_read_lines_iterates_until_eof(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode({"n": 1}) + encode({"n": 2}))
            left.close()
            assert list(read_lines(right)) == [{"n": 1}, {"n": 2}]
        finally:
            right.close()


# ---------------------------------------------------------------------------
# shard routing


def test_route_key_is_deterministic_and_in_range():
    import hashlib

    keys = [
        hashlib.sha256(str(value).encode()).hexdigest() for value in range(100)
    ]
    for shards in (1, 2, 5):
        routes = [route_key(key, shards) for key in keys]
        assert routes == [route_key(key, shards) for key in keys]
        assert all(0 <= r < shards for r in routes)
    # With several shards the partition must actually split the space.
    assert len(set(route_key(key, 4) for key in keys)) > 1


def test_parse_kill_shard():
    assert parse_kill_shard([]) == {}
    assert parse_kill_shard(["0:1", "2:5"]) == {0: 1, 2: 5}
    with pytest.raises(SystemExit):
        parse_kill_shard(["nonsense"])


# ---------------------------------------------------------------------------
# service manifest schema


def service_section(campaign: str = "c000000") -> dict:
    return {
        "campaign": campaign,
        "recovered": False,
        "queue": {
            "pending": 0,
            "in_flight": 0,
            "torn_lines": 0,
            "bad_lines": 0,
            "segments_swept": 0,
            "replayed_records": 0,
        },
        "shards": {
            "executed": 2,
            "cache_hits": 0,
            "respawns": 0,
            "inline_fallback": 0,
            "reassigned_tasks": 0,
        },
        "requests": {"submit": 1, "status": 3},
        "prefilled_from_cache": 0,
    }


class TestServiceManifest:
    def test_valid_service_record(self):
        record = build_manifest(
            "service",
            "svc-test",
            wall_seconds=1.0,
            service=service_section(),
        )
        assert validate_manifest(record) == []

    def test_service_kind_requires_service_section(self):
        record = build_manifest("service", "svc-test", wall_seconds=1.0)
        assert any(
            "requires a service section" in problem
            for problem in validate_manifest(record)
        )

    def test_mistyped_service_fields_flagged(self):
        section = service_section()
        section["queue"]["in_flight"] = "one"
        section["shards"].pop("respawns")
        section["requests"]["submit"] = True
        record = build_manifest(
            "service", "svc-test", wall_seconds=1.0, service=section
        )
        problems = validate_manifest(record)
        assert any("queue.in_flight" in p for p in problems)
        assert any("shards.respawns" in p for p in problems)
        assert any("requests['submit']" in p for p in problems)

    def test_missing_campaign_id_flagged(self):
        section = service_section()
        del section["campaign"]
        record = build_manifest(
            "service", "svc-test", wall_seconds=1.0, service=section
        )
        assert any(
            "service.campaign" in p for p in validate_manifest(record)
        )


# ---------------------------------------------------------------------------
# admission control (daemon methods, no socket, no shard processes)


@pytest.fixture
def daemon(tmp_path):
    instance = CampaignDaemon(tmp_path / "spool", shards=1, max_queue_depth=1)
    yield instance
    instance.close()


class TestAdmission:
    def test_bad_design_rejected_at_submit(self, daemon):
        response = daemon.submit(
            {"op": "submit", "design": {"design": {}}, "seed": 1}
        )
        assert not response["ok"]
        assert "invalid design" in response["error"]

    def test_missing_design_rejected(self, daemon):
        response = daemon.submit({"op": "submit", "seed": 1})
        assert not response["ok"]

    def test_submission_admitted_and_visible_in_status(self, daemon):
        response = daemon.submit(
            {"op": "submit", "design": SMALL_DESIGN, "seed": SMALL_SEED}
        )
        assert response["ok"] and response["jobs"] == SMALL_JOBS
        campaign_id = response["id"]

        record = daemon.status(campaign_id)["campaign"]
        assert record["state"] == "queued" and record["total"] == SMALL_JOBS

        status = daemon.status()
        assert status["queue"]["depth"] == 1
        assert status["campaigns"][0]["id"] == campaign_id

    def test_queue_full_sheds_with_retry_after(self, daemon):
        assert daemon.submit(
            {"op": "submit", "design": SMALL_DESIGN, "seed": 1}
        )["ok"]
        shed = daemon.submit(
            {"op": "submit", "design": SMALL_DESIGN, "seed": 2}
        )
        assert not shed["ok"]
        assert shed["error"] == "queue-full"
        assert shed["retry_after"] >= 1.0

    def test_draining_daemon_sheds_submissions(self, daemon):
        daemon._draining = True
        shed = daemon.submit(
            {"op": "submit", "design": SMALL_DESIGN, "seed": 1}
        )
        assert not shed["ok"]
        assert shed["error"] == "draining" and "retry_after" in shed

    def test_cancel_queued_campaign(self, daemon):
        campaign_id = daemon.submit(
            {"op": "submit", "design": SMALL_DESIGN, "seed": 1}
        )["id"]
        assert daemon.cancel(campaign_id)["ok"]
        assert daemon.status(campaign_id)["campaign"]["state"] == "cancelled"
        assert not daemon.cancel(campaign_id)["ok"]  # already gone

    def test_unknown_campaign_status(self, daemon):
        assert not daemon.status("ghost")["ok"]

    def test_archived_campaign_status_from_spool(self, daemon):
        (daemon.spool / "results" / "old.jsonl").write_text(
            "", encoding="utf-8"
        )
        record = daemon.status("old")["campaign"]
        assert record["state"] == "done" and record["archived"]

    def test_requests_are_logged(self, daemon):
        daemon.status()
        daemon.submit({"op": "submit", "seed": 1})  # rejected, still logged
        ops = [
            json.loads(line)["op"]
            for line in daemon.request_log_path.read_text(
                encoding="utf-8"
            ).splitlines()
        ]
        assert ops == ["status", "submit"]
        assert daemon._request_counts == {"status": 1, "submit": 1}


# ---------------------------------------------------------------------------
# end-to-end over the socket (service tier: real shard processes)


@pytest.fixture
def service_root():
    # Unix socket paths are length-limited (~104 bytes); pytest tmp paths
    # can blow past that, so use a short-lived /tmp directory instead.
    root = Path(tempfile.mkdtemp(prefix="repro-svc-", dir="/tmp"))
    yield root
    shutil.rmtree(root, ignore_errors=True)


@contextmanager
def serving(daemon: CampaignDaemon, socket_path: Path):
    thread = threading.Thread(
        target=daemon.serve, args=(socket_path,), daemon=True
    )
    thread.start()
    client = ServiceClient(socket_path, timeout=120.0)
    client.wait_ready()
    try:
        yield client
    finally:
        try:
            client.shutdown()
        except (OSError, ServiceError, ProtocolError):
            pass
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "daemon failed to shut down"


def wait_done(client: ServiceClient, campaign_id: str) -> None:
    import time

    deadline = time.time() + 120.0
    while time.time() < deadline:
        record = client.status(campaign_id)["campaign"]
        if record["state"] == "done":
            return
        assert record["state"] not in ("failed", "cancelled"), record
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished")


class TestCliOffline:
    """CLI service commands that need no daemon: error exit codes."""

    def test_submit_missing_design_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "submit", str(tmp_path / "nope.json"),
                "--socket", str(tmp_path / "d.sock"),
            ]
        )
        assert code == 2
        assert "cannot load design" in capsys.readouterr().err

    def test_status_without_daemon_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["status", "--socket", str(tmp_path / "d.sock")])
        assert code == 2
        assert "service error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--shards", "0"), ("--heartbeat-timeout", "0")]
    )
    def test_daemon_bad_counts_exit_2(self, flag, value, tmp_path, capsys):
        from repro.service.__main__ import main as service_main

        with pytest.raises(SystemExit) as excinfo:
            service_main(["--spool", str(tmp_path), flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert not (tmp_path / "journal").exists()  # rejected before start

    @pytest.mark.parametrize(
        "flags", [[], ["--shards", "3", "--max-queue-depth", "0",
                       "--heartbeat-timeout", "5", "--socket", "d.sock"]]
    )
    def test_serve_and_module_entry_share_daemon_flags(self, flags):
        from repro.cli import build_parser
        from repro.service.__main__ import build_parser as build_service_parser

        serve = vars(build_parser().parse_args(["serve", "--spool", "s", *flags]))
        module = vars(build_service_parser().parse_args(["--spool", "s", *flags]))
        assert serve.pop("command") == "serve"
        # The module entry adds only its two fault hooks.
        assert module.pop("kill_shard") == []
        assert module.pop("fault_kill_after") is None
        assert serve == module
        assert set(serve) == {
            "spool", "socket", "shards", "max_queue_depth", "heartbeat_timeout"
        }

    def test_submit_unreachable_daemon_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps(SMALL_DESIGN), encoding="utf-8")
        code = main(
            [
                "submit", str(design_file),
                "--socket", str(tmp_path / "d.sock"),
            ]
        )
        assert code == 2


@pytest.mark.service
class TestCliEndToEnd:
    def test_submit_status_and_shed_exit_codes(self, service_root, capsys):
        from repro.cli import main

        design_file = service_root / "design.json"
        design_file.write_text(json.dumps(SMALL_DESIGN), encoding="utf-8")
        socket_path = service_root / "d.sock"

        daemon = CampaignDaemon(service_root / "spool", shards=1)
        with serving(daemon, socket_path):
            code = main(
                [
                    "submit", str(design_file),
                    "--socket", str(socket_path),
                    "--seed", str(SMALL_SEED),
                ]
            )
            assert code == 0
            output = capsys.readouterr().out
            assert "admitted campaign" in output
            assert f"{SMALL_JOBS} result(s) streamed" in output

            assert main(["status", "--socket", str(socket_path)]) == 0
            status_out = capsys.readouterr().out
            assert "queue:" in status_out and "shard 0:" in status_out

        # A zero-depth daemon sheds every submission: CLI exit code 4.
        shedding = CampaignDaemon(
            service_root / "spool2", shards=1, max_queue_depth=0
        )
        with serving(shedding, socket_path):
            code = main(
                [
                    "submit", str(design_file),
                    "--socket", str(socket_path),
                    "--no-wait",
                ]
            )
            assert code == 4
            assert "retry after" in capsys.readouterr().err


@pytest.mark.service
class TestServiceEndToEnd:
    def test_submit_stream_and_byte_identity(self, service_root):
        spool = service_root / "spool"
        daemon = CampaignDaemon(spool, shards=2)
        with serving(daemon, service_root / "d.sock") as client:
            submitted = client.submit(SMALL_DESIGN, seed=SMALL_SEED)
            assert submitted["ok"] and submitted["jobs"] == SMALL_JOBS
            campaign_id = submitted["id"]

            frames = list(client.results(campaign_id))
            assert [f["index"] for f in frames] == list(range(SMALL_JOBS))
            wait_done(client, campaign_id)

            status = client.status(campaign_id)["campaign"]
            assert status["completed"] == SMALL_JOBS

        # The spooled stream is the canonical bytes a direct in-process
        # run of the same (config, seed, replication) jobs produces.
        stream = (spool / "results" / f"{campaign_id}.jsonl").read_text(
            encoding="utf-8"
        )
        assert stream.splitlines() == expected_result_lines()
        assert [
            json.dumps(f, sort_keys=True, separators=(",", ":"))
            for f in frames
        ] == expected_result_lines()

        # One schema-valid service manifest record per campaign.
        records = read_manifests(spool / "manifest.jsonl")
        assert len(records) == 1
        assert validate_manifest(records[0]) == []
        assert records[0]["service"]["campaign"] == campaign_id
        assert records[0]["service"]["shards"]["executed"] == SMALL_JOBS

    def test_recovered_campaign_resumes_byte_identically(self, service_root):
        spool = service_root / "spool"
        daemon = CampaignDaemon(spool, shards=1)
        with serving(daemon, service_root / "d.sock") as client:
            campaign_id = client.submit(SMALL_DESIGN, seed=SMALL_SEED)["id"]
            wait_done(client, campaign_id)
        reference = (spool / "results" / f"{campaign_id}.jsonl").read_bytes()

        # Forge the crash footprint a SIGKILL'd daemon leaves: the same
        # campaign claimed in the journal but never acked.  Its
        # checkpoint and cache entries are still in the spool, so the
        # rerun must reconcile instead of recompute.
        compiled = compile_design(
            design_from_dict(SMALL_DESIGN), None, SMALL_SEED
        )
        payload = {
            "design": SMALL_DESIGN,
            "replications": compiled.replications,
            "seed": SMALL_SEED,
            "jobs": len(compiled.jobs),
            "experiment": design_from_dict(SMALL_DESIGN).experiment_id,
        }
        with PersistentQueue(spool / "journal") as queue:
            queue.submit(payload, campaign_id=campaign_id)
            assert queue.claim().campaign_id == campaign_id

        restarted = CampaignDaemon(spool, shards=1)
        with serving(restarted, service_root / "d.sock") as client:
            status = client.status()
            assert status["queue"]["recovery"]["in_flight"] == 1
            wait_done(client, campaign_id)
            assert client.status(campaign_id)["campaign"]["recovered"]

        resumed = (spool / "results" / f"{campaign_id}.jsonl").read_bytes()
        assert resumed == reference

        records = read_manifests(spool / "manifest.jsonl")
        recovered = records[-1]
        assert recovered["service"]["recovered"] is True
        assert recovered["service"]["prefilled_from_cache"] == SMALL_JOBS
        resume = recovered["resilience"]["resume"]
        assert resume["previously_completed"] == SMALL_JOBS
        assert resume["resumed_from_cache"] == SMALL_JOBS
        assert resume["fresh"] == 0

    def test_shard_crash_respawns_and_campaign_survives(self, service_root):
        spool = service_root / "spool"
        # One shard armed to die after its first task: every job routes
        # to it, so the crash is certain and the respawn must finish the
        # campaign.
        daemon = CampaignDaemon(
            spool, shards=1, kill_after_tasks={0: 1}
        )
        with serving(daemon, service_root / "d.sock") as client:
            campaign_id = client.submit(SMALL_DESIGN, seed=SMALL_SEED)["id"]
            frames = list(client.results(campaign_id))
            wait_done(client, campaign_id)
        assert len(frames) == SMALL_JOBS

        record = read_manifests(spool / "manifest.jsonl")[-1]
        assert record["resilience"]["pool_respawns"] >= 1
        assert any(
            event["kind"] == "shard-death"
            for event in record["resilience"]["events"]
        )

    def test_cancel_drain_and_archived_replay(self, service_root):
        spool = service_root / "spool"
        daemon = CampaignDaemon(spool, shards=1, max_queue_depth=4)
        with serving(daemon, service_root / "d.sock") as client:
            first = client.submit(SMALL_DESIGN, seed=SMALL_SEED)["id"]
            second = client.submit(SMALL_DESIGN, seed=SMALL_SEED + 1)["id"]
            # The single executor runs campaigns one at a time; the
            # second is still queued and therefore cancellable.
            assert client.cancel(second)
            assert not client.cancel(second)  # idempotent rejection
            drained = client.drain()
            assert drained["ok"]
            assert client.status(first)["campaign"]["state"] == "done"
            # Draining daemons shed new work with a retry hint.
            shed = client.submit(SMALL_DESIGN, seed=7)
            assert not shed["ok"] and "retry_after" in shed

        # A fresh daemon on the same spool replays the archived stream.
        restarted = CampaignDaemon(spool, shards=1)
        with serving(restarted, service_root / "d.sock") as client:
            record = client.status(first)["campaign"]
            assert record["state"] == "done" and record.get("archived")
            frames = list(client.results(first))
        assert [
            json.dumps(f, sort_keys=True, separators=(",", ":"))
            for f in frames
        ] == expected_result_lines()
