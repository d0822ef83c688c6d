"""Contact-list file format (NGCE-style export/import).

The paper's authors modified NGCE "to produce a contact list output file to
be read as input by our Möbius model".  We reproduce that interface: a
plain-text format mapping each phone id to its contact list, so topologies
can be generated once and replayed across experiments.

Format (one phone per line, ``#`` comments and blank lines ignored)::

    # contact-list v1 n=1000
    0: 12, 837, 401
    1: 44
    2:

A phone with no contacts writes an empty right-hand side.  The header line
is required and carries the population size; reciprocity is validated on
load.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import List, TextIO, Tuple, Union

from .csr import CSRAdjacency, _from_pairs

_HEADER_PREFIX = "# contact-list v1 n="


class ContactListFormatError(ValueError):
    """Raised when a contact-list file is malformed."""


def write_contact_lists(graph: CSRAdjacency, destination: Union[str, Path, TextIO]) -> None:
    """Write ``graph`` in contact-list format to a path or text stream."""
    if isinstance(destination, (str, Path)):
        path = Path(destination)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            _write(graph, handle)
    else:
        _write(graph, destination)


def _write(graph: CSRAdjacency, handle: TextIO) -> None:
    handle.write(f"{_HEADER_PREFIX}{graph.num_nodes}\n")
    for node, row in enumerate(graph.neighbor_lists()):
        contacts = ", ".join(map(str, row))
        handle.write(f"{node}: {contacts}\n")


def dumps_contact_lists(graph: CSRAdjacency) -> str:
    """Render ``graph`` in contact-list format as a string."""
    buffer = io.StringIO()
    _write(graph, buffer)
    return buffer.getvalue()


def read_contact_lists(source: Union[str, Path, TextIO]) -> CSRAdjacency:
    """Load a :class:`CSRAdjacency` from a path or text stream.

    Validates the header, node-id ranges, absence of self-loops, and
    reciprocity (every directed mention must have its mirror).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read(handle)
    return _read(source)


def loads_contact_lists(text: str) -> CSRAdjacency:
    """Load a :class:`CSRAdjacency` from a string."""
    return _read(io.StringIO(text))


def _read(handle: TextIO) -> CSRAdjacency:
    header = handle.readline()
    if not header.startswith(_HEADER_PREFIX):
        raise ContactListFormatError(
            f"missing header; expected a line starting with {_HEADER_PREFIX!r}"
        )
    try:
        num_nodes = int(header[len(_HEADER_PREFIX) :].strip())
    except ValueError as exc:
        raise ContactListFormatError(f"bad population size in header: {header!r}") from exc
    if num_nodes < 0:
        raise ContactListFormatError(f"negative population size {num_nodes}")

    mentions: List[Tuple[int, int]] = []
    seen_nodes = set()
    for line_no, raw in enumerate(handle, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ContactListFormatError(f"line {line_no}: missing ':' in {raw!r}")
        left, _, right = line.partition(":")
        try:
            node = int(left.strip())
        except ValueError as exc:
            raise ContactListFormatError(f"line {line_no}: bad phone id {left!r}") from exc
        if not 0 <= node < num_nodes:
            raise ContactListFormatError(
                f"line {line_no}: phone id {node} out of range [0, {num_nodes})"
            )
        if node in seen_nodes:
            raise ContactListFormatError(f"line {line_no}: duplicate entry for phone {node}")
        seen_nodes.add(node)
        right = right.strip()
        if right:
            for token in right.split(","):
                try:
                    contact = int(token.strip())
                except ValueError as exc:
                    raise ContactListFormatError(
                        f"line {line_no}: bad contact id {token!r}"
                    ) from exc
                if not 0 <= contact < num_nodes:
                    raise ContactListFormatError(
                        f"line {line_no}: contact {contact} out of range [0, {num_nodes})"
                    )
                if contact == node:
                    raise ContactListFormatError(
                        f"line {line_no}: phone {node} lists itself as a contact"
                    )
                mentions.append((node, contact))

    mention_set = set(mentions)
    if len(mention_set) != len(mentions):
        raise ContactListFormatError("duplicate contact within one contact list")
    for u, v in mention_set:
        if (v, u) not in mention_set:
            raise ContactListFormatError(
                f"contact lists are not reciprocal: {u} lists {v} but not vice versa"
            )

    return _from_pairs(num_nodes, list(mention_set))


__all__ = [
    "ContactListFormatError",
    "write_contact_lists",
    "read_contact_lists",
    "dumps_contact_lists",
    "loads_contact_lists",
]
