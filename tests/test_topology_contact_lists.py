"""Tests for the NGCE-style contact-list file format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import (
    CSRAdjacency,
    ContactListFormatError,
    contact_network,
    dumps_contact_lists,
    loads_contact_lists,
    read_contact_lists,
    write_contact_lists,
)
from repro.topology.csr import _from_pairs


def sample_graph() -> CSRAdjacency:
    return _from_pairs(5, [(0, 1), (0, 4), (2, 3)])


def test_round_trip_string():
    graph = sample_graph()
    text = dumps_contact_lists(graph)
    loaded = loads_contact_lists(text)
    assert sorted(loaded.edges()) == sorted(graph.edges())
    assert loaded.num_nodes == graph.num_nodes


def test_round_trip_file(tmp_path):
    graph = contact_network(
        60, 6.0, np.random.default_rng(0), model="random"
    )
    path = tmp_path / "contacts.txt"
    write_contact_lists(graph, path)
    loaded = read_contact_lists(path)
    assert sorted(loaded.edges()) == sorted(graph.edges())


def test_format_shape():
    text = dumps_contact_lists(sample_graph())
    lines = text.strip().splitlines()
    assert lines[0] == "# contact-list v1 n=5"
    assert lines[1] == "0: 1, 4"
    assert lines[3] == "2: 3"


def test_missing_header_rejected():
    with pytest.raises(ContactListFormatError):
        loads_contact_lists("0: 1\n1: 0\n")


def test_bad_population_rejected():
    with pytest.raises(ContactListFormatError):
        loads_contact_lists("# contact-list v1 n=abc\n")


def test_non_reciprocal_rejected():
    text = "# contact-list v1 n=2\n0: 1\n1:\n"
    with pytest.raises(ContactListFormatError, match="reciprocal"):
        loads_contact_lists(text)


def test_self_contact_rejected():
    text = "# contact-list v1 n=2\n0: 0\n1:\n"
    with pytest.raises(ContactListFormatError):
        loads_contact_lists(text)


def test_out_of_range_contact_rejected():
    text = "# contact-list v1 n=2\n0: 5\n1:\n"
    with pytest.raises(ContactListFormatError):
        loads_contact_lists(text)


def test_duplicate_phone_entry_rejected():
    text = "# contact-list v1 n=2\n0: 1\n0: 1\n1: 0\n"
    with pytest.raises(ContactListFormatError):
        loads_contact_lists(text)


def test_bad_contact_token_rejected():
    text = "# contact-list v1 n=2\n0: x\n1:\n"
    with pytest.raises(ContactListFormatError):
        loads_contact_lists(text)


def test_missing_colon_rejected():
    text = "# contact-list v1 n=2\n0 1\n"
    with pytest.raises(ContactListFormatError):
        loads_contact_lists(text)


def test_comments_and_blanks_ignored():
    text = "# contact-list v1 n=2\n\n# comment\n0: 1\n1: 0\n"
    graph = loads_contact_lists(text)
    assert graph.has_edge(0, 1)


def test_empty_contact_lists_allowed():
    text = "# contact-list v1 n=3\n0:\n1:\n2:\n"
    graph = loads_contact_lists(text)
    assert graph.num_edges == 0
