"""The durable JSONL log under the campaign checkpoint and the daemon journal.

One policy, kept here and nowhere else: a whole-file write is atomic and
durable (tmp in the same directory → fsync → ``os.replace`` → directory
fsync); an appended line is fsync'd before the append returns; replay
reports a torn final line (the only damage a crashed append can cause)
and every earlier line that is not JSON, leaving what to do about a bad
line to the caller; and a torn tail is cut back to its last newline
before the next append, so a new record is never glued onto it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable, List, Optional, Union

PathLike = Union[str, Path]


def fsync_directory(path: PathLike) -> None:
    """fsync a directory so a rename/create inside it is durable.

    ``os.replace`` makes a write atomic but not durable — the directory
    entry itself lives in the parent, which must be fsync'd separately
    for the rename to survive a power cut.  Best-effort: platforms that
    cannot open directories (or refuse to fsync them) are skipped.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. some network filesystems
        pass
    finally:
        os.close(fd)


def sync(handle: IO[str], directory: Optional[PathLike] = None) -> None:
    """Flush and fsync ``handle``; then ``directory``, for a new file's name."""
    handle.flush()
    os.fsync(handle.fileno())
    if directory is not None:
        fsync_directory(directory)


def write_atomic(path: PathLike, lines: Iterable[str]) -> None:
    """Durably replace ``path`` with ``lines``, each newline-terminated.

    A crash before the rename leaves a ``.tmp-*`` file beside ``path``
    for its owner to sweep; an exception removes it.
    """
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            for line in lines:
                tmp.write(line + "\n")
            sync(tmp)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def append_line(handle: IO[str], line: str) -> None:
    """Append one line to a log opened by :func:`open_append`; fsync'd."""
    handle.write(line + "\n")
    sync(handle)


@dataclass(frozen=True)
class Replay:
    """What :func:`replay` read back from one log file."""

    #: Parsed JSON values of the complete (newline-terminated) lines.
    records: List[Any]
    #: 1-based numbers of complete lines that are not JSON.
    bad_lines: List[int]
    #: The unterminated fragment after the last newline ("" if none).
    tail: str
    #: Byte length of the complete lines — where a torn tail is cut to.
    end: int

    @property
    def torn(self) -> bool:
        return bool(self.tail.strip())


def replay(path: PathLike) -> Replay:
    """Read a log, skipping blank lines; ``OSError`` if unreadable."""
    data = Path(path).read_bytes()
    end = data.rfind(b"\n") + 1
    records: List[Any] = []
    bad_lines: List[int] = []
    body = data[:end].decode("utf-8", errors="replace").split("\n")[:-1]
    for number, line in enumerate(body, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            bad_lines.append(number)
    tail = data[end:].decode("utf-8", errors="replace")
    return Replay(records=records, bad_lines=bad_lines, tail=tail, end=end)


def open_append(path: PathLike, replayed: Optional[Replay] = None) -> IO[str]:
    """Open a log for appends, first cutting off the tail ``replayed`` found."""
    if replayed is not None and replayed.tail:
        os.truncate(path, replayed.end)
    return Path(path).open("a", encoding="utf-8")


__all__ = [
    "Replay",
    "append_line",
    "fsync_directory",
    "open_append",
    "replay",
    "sync",
    "write_atomic",
]
