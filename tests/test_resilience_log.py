"""The durable JSONL log shared by the campaign checkpoint and the journal.

Checkpoint- and journal-level recovery policies (what a bad line or a
torn tail means to each) are tested in their own suites; these tests pin
the log's own contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilience.log import (
    append_line,
    open_append,
    replay,
    sync,
    write_atomic,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def tmp_files(directory: Path) -> list:
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp-"))


def test_append_then_replay_round_trip(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [{"n": 1}, {"n": 2, "tag": "x"}, ["a", "list"]]
    with open_append(path) as handle:
        for record in records:
            append_line(handle, json.dumps(record))
    replayed = replay(path)
    assert replayed.records == records
    assert replayed.bad_lines == []
    assert not replayed.torn and replayed.tail == ""
    assert replayed.end == path.stat().st_size


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n\n  \n{"n": 2}\n', encoding="utf-8")
    replayed = replay(path)
    assert replayed.records == [{"n": 1}, {"n": 2}]
    assert replayed.bad_lines == []


def test_torn_tail_reported_then_healed_by_next_append(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n{"n": 2', encoding="utf-8")
    replayed = replay(path)
    assert replayed.torn
    assert replayed.tail == '{"n": 2'
    assert replayed.records == [{"n": 1}]
    assert replayed.bad_lines == []

    with open_append(path, replayed) as handle:
        append_line(handle, json.dumps({"n": 3}))
    healed = replay(path)
    assert not healed.torn
    assert healed.records == [{"n": 1}, {"n": 3}]
    assert healed.bad_lines == []


def test_bad_line_before_tail_reported_by_line_number(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"n": 1}\nnot json\n{"n": 3}\n{"n": 4\n{"n": 5}\n', encoding="utf-8"
    )
    replayed = replay(path)
    assert replayed.bad_lines == [2, 4]
    assert replayed.records == [{"n": 1}, {"n": 3}, {"n": 5}]
    assert not replayed.torn


def test_write_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text("old contents\n", encoding="utf-8")
    write_atomic(path, ['{"a": 1}', '{"b": 2}'])
    assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": 2}\n'
    assert tmp_files(tmp_path) == []


def test_write_atomic_exception_leaves_no_tmp_and_old_file(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text("old contents\n", encoding="utf-8")

    def lines():
        yield '{"a": 1}'
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        write_atomic(path, lines())
    assert path.read_text(encoding="utf-8") == "old contents\n"
    assert tmp_files(tmp_path) == []


def test_write_atomic_crash_before_rename_leaves_tmp_file(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text("old contents\n", encoding="utf-8")
    # A process killed between the tmp fsync and the rename: os._exit
    # skips every cleanup handler, exactly like SIGKILL would.
    script = (
        "import os, sys\n"
        "from repro.resilience.log import write_atomic\n"
        "os.replace = lambda *args: os._exit(9)\n"
        "write_atomic(sys.argv[1], ['{\"a\": 1}'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, timeout=60
    )
    assert done.returncode == 9
    assert path.read_text(encoding="utf-8") == "old contents\n"
    strays = tmp_files(tmp_path)
    assert len(strays) == 1 and strays[0].endswith(".json")
    assert (tmp_path / strays[0]).read_text(encoding="utf-8") == '{"a": 1}\n'


def test_sync_flushes_buffered_writes(tmp_path):
    path = tmp_path / "results.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        handle.write("line\n")
        sync(handle, tmp_path)
        assert path.read_text(encoding="utf-8") == "line\n"
