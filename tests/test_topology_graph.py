"""Tests for the contact graph's query surface (:class:`CSRAdjacency`)."""

from __future__ import annotations

import pytest

from repro.topology.csr import _from_pairs


def test_empty_graph():
    graph = _from_pairs(0, [])
    assert graph.num_nodes == 0
    assert graph.num_edges == 0
    assert graph.mean_degree() == 0.0
    assert graph.neighbor_lists() == ()


def test_add_and_query_edges():
    graph = _from_pairs(4, [(0, 1), (1, 0)])  # duplicate (reversed) collapses
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 0)
    assert not graph.has_edge(0, 2)
    assert not graph.has_edge(3, 2)
    assert graph.num_edges == 1


def test_self_loop_rejected():
    graph = _from_pairs(3, [(1, 1), (0, 1)])
    assert not graph.has_edge(1, 1)
    assert graph.neighbor_lists() == ((1,), (0,), ())
    assert graph.num_edges == 1


def test_out_of_range_rejected():
    graph = _from_pairs(3, [(0, 1)])
    with pytest.raises(ValueError):
        graph.has_edge(0, 3)
    with pytest.raises(ValueError):
        graph.has_edge(-1, 0)


def test_neighbors_sorted_and_reciprocal():
    graph = _from_pairs(5, [(2, 4), (2, 0), (2, 3)])
    assert list(graph.neighbors(2)) == [0, 3, 4]
    assert graph.neighbor_lists()[2] == (0, 3, 4)
    for neighbor in graph.neighbor_lists()[2]:
        assert 2 in graph.neighbor_lists()[neighbor]
        assert graph.has_edge(neighbor, 2)


def test_degrees_and_mean():
    graph = _from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    assert graph.degrees().tolist() == [3, 1, 1, 1]
    assert graph.mean_degree() == pytest.approx(1.5)


def test_edges_iteration_sorted():
    graph = _from_pairs(4, [(2, 3), (0, 1), (3, 1)])
    assert list(graph.edges()) == [(0, 1), (1, 3), (2, 3)]


def test_contact_lists_covers_population():
    graph = _from_pairs(3, [(0, 1)])
    assert graph.neighbor_lists() == ((1,), (0,), ())
