"""Tests for the ContactGraph structure."""

from __future__ import annotations

import pytest

from repro.topology import ContactGraph


def test_empty_graph():
    graph = ContactGraph(0)
    assert graph.num_nodes == 0
    assert graph.num_edges == 0
    assert graph.mean_degree() == 0.0


def test_add_and_query_edges():
    graph = ContactGraph(4)
    assert graph.add_edge(0, 1) is True
    assert graph.add_edge(1, 0) is False  # duplicate (reversed) ignored
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 0)
    assert not graph.has_edge(0, 2)
    assert graph.num_edges == 1


def test_self_loop_rejected():
    graph = ContactGraph(3)
    with pytest.raises(ValueError):
        graph.add_edge(1, 1)


def test_out_of_range_rejected():
    graph = ContactGraph(3)
    with pytest.raises(ValueError):
        graph.add_edge(0, 3)
    with pytest.raises(ValueError):
        graph.degree(-1)


def test_remove_edge():
    graph = ContactGraph(3)
    graph.add_edge(0, 1)
    assert graph.remove_edge(1, 0) is True
    assert graph.remove_edge(0, 1) is False
    assert graph.num_edges == 0


def test_neighbors_sorted_and_reciprocal():
    graph = ContactGraph(5)
    graph.add_edge(2, 4)
    graph.add_edge(2, 0)
    graph.add_edge(2, 3)
    assert graph.neighbors(2) == (0, 3, 4)
    assert graph.is_reciprocal()
    for neighbor in graph.neighbors(2):
        assert 2 in graph.neighbors(neighbor)


def test_degrees_and_mean():
    graph = ContactGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert graph.degrees() == [3, 1, 1, 1]
    assert graph.mean_degree() == pytest.approx(1.5)
    assert graph.degree(0) == 3


def test_edges_iteration_sorted():
    graph = ContactGraph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    assert list(graph.edges()) == [(0, 1), (1, 3), (2, 3)]


def test_contact_lists_covers_population():
    graph = ContactGraph.from_edges(3, [(0, 1)])
    lists = graph.contact_lists()
    assert lists == {0: (1,), 1: (0,), 2: ()}


def test_isolated_nodes():
    graph = ContactGraph.from_edges(4, [(0, 1)])
    assert graph.isolated_nodes() == [2, 3]


def test_copy_is_independent():
    graph = ContactGraph.from_edges(3, [(0, 1)])
    clone = graph.copy()
    clone.add_edge(1, 2)
    assert not graph.has_edge(1, 2)
    assert clone.has_edge(1, 2)
    assert graph.num_edges == 1
    assert clone.num_edges == 2


def test_subgraph_relabels():
    graph = ContactGraph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
    sub = graph.subgraph([0, 2, 4])
    assert sub.num_nodes == 3
    assert sub.has_edge(0, 1)  # was (0, 2)
    assert sub.has_edge(1, 2)  # was (2, 4)
    assert sub.num_edges == 2


def test_from_sorted_rows_matches_edge_by_edge_build():
    edges = [(0, 2), (2, 4), (1, 3), (0, 4)]
    built = ContactGraph.from_edges(6, edges)
    rows = built.neighbor_lists()
    graph = ContactGraph.from_sorted_rows(rows)
    assert graph.num_nodes == 6
    assert graph.num_edges == 4
    assert graph.neighbor_lists() == rows
    assert list(graph.edges()) == list(built.edges())
    assert graph.isolated_nodes() == [5]
    assert graph.is_reciprocal()
    # The rows are only a cache: editing the graph re-derives them.
    graph.add_edge(5, 1)
    assert graph.neighbors(1) == (3, 5)
    assert graph.neighbor_lists()[5] == (1,)
