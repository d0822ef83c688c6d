"""Tests for the CSR adjacency and the scalable power-law generator.

The xl engine's topology path must preserve the paper's network: a
power-law contact graph with mean contact-list size ~80 at N=1000 and a
degree distribution whose log-log tail slope matches the configured
exponent.  Structural invariants (symmetry, sorted rows, no self-loops,
no isolated nodes) are checked across sizes; the exponent and the mean
are checked statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import CSRAdjacency, csr_powerlaw
from repro.topology.generators import contact_network
from repro.topology.graph import ContactGraph


def _assert_structural_invariants(adjacency: CSRAdjacency) -> None:
    n = adjacency.num_nodes
    degrees = adjacency.degrees()
    assert len(adjacency.indptr) == n + 1
    assert adjacency.indptr[0] == 0
    assert int(adjacency.indptr[-1]) == len(adjacency.indices)
    assert np.all(degrees > 0), "isolated nodes must be repaired"
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = adjacency.indices.astype(np.int64)
    assert np.all(src != dst), "self-loops are forbidden"
    # Rows strictly increasing => sorted and duplicate-free.
    row_starts = adjacency.indptr[:-1]
    interior = np.ones(len(dst), dtype=bool)
    interior[row_starts] = False
    assert np.all(np.diff(dst)[interior[1:]] > 0)
    # Symmetry: the reversed edge set is the same set.
    forward = src * n + dst
    backward = dst * n + src
    assert np.array_equal(np.sort(forward), np.sort(backward))


@pytest.mark.parametrize("num_nodes", [100, 1000, 10_000])
def test_csr_powerlaw_structure(num_nodes):
    rng = np.random.default_rng(2007)
    adjacency = csr_powerlaw(num_nodes, 16.0, 1.8, rng)
    assert adjacency.num_nodes == num_nodes
    _assert_structural_invariants(adjacency)


@pytest.mark.slow
def test_csr_powerlaw_structure_100k():
    rng = np.random.default_rng(2007)
    adjacency = csr_powerlaw(100_000, 80.0, 1.8, rng)
    assert adjacency.num_nodes == 100_000
    _assert_structural_invariants(adjacency)
    assert adjacency.mean_degree() > 8.0


def test_mean_contact_list_size_is_eighty_at_paper_population():
    """The paper's network: N=1000, mean contact-list size ~80."""
    means = [
        csr_powerlaw(1000, 80.0, 1.8, np.random.default_rng(seed)).mean_degree()
        for seed in range(5)
    ]
    # Same calibration (and tolerance) the object generator is held to.
    assert np.mean(means) == pytest.approx(80.0, rel=0.15)


def test_powerlaw_exponent_via_loglog_regression():
    """Log-log degree-histogram slope recovers the configured exponent."""
    exponent = 1.8
    rng = np.random.default_rng(2007)
    adjacency = csr_powerlaw(20_000, 40.0, exponent, rng)
    degrees = adjacency.degrees()
    values, counts = np.unique(degrees, return_counts=True)
    # Regress over the well-populated head of the distribution; the
    # sparse tail (few samples per degree) only adds noise.
    mask = counts >= 5
    slope, _ = np.polyfit(np.log(values[mask]), np.log(counts[mask]), 1)
    assert -slope == pytest.approx(exponent, abs=0.35)


def test_csr_matches_object_generator_distribution():
    """CSR and object generators share calibration: similar mean degree."""
    rng_a = np.random.default_rng(1)
    rng_b = np.random.default_rng(2)
    csr = csr_powerlaw(1000, 80.0, 1.8, rng_a)
    obj = contact_network(1000, 80.0, rng_b, model="powerlaw", exponent=1.8)
    obj_mean = 2 * obj.num_edges / obj.num_nodes
    assert csr.mean_degree() == pytest.approx(obj_mean, rel=0.1)


def test_from_edges_dedupes_and_sorts():
    adjacency = CSRAdjacency.from_edges(
        5,
        np.array([0, 1, 1, 3, 0, 2]),
        np.array([1, 0, 2, 3, 1, 4]),  # dup 0-1 (twice), self-loop 3-3
    )
    assert adjacency.num_edges == 3
    assert list(adjacency.neighbors(0)) == [1]
    assert list(adjacency.neighbors(1)) == [0, 2]
    assert list(adjacency.neighbors(2)) == [1, 4]
    assert list(adjacency.neighbors(3)) == []
    assert list(adjacency.neighbors(4)) == [2]


def test_contact_graph_round_trip():
    graph = ContactGraph(6)
    for u, v in [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]:
        graph.add_edge(u, v)
    adjacency = CSRAdjacency.from_contact_graph(graph)
    assert adjacency.num_edges == 5
    assert list(adjacency.neighbors(0)) == [1, 2]
    back = adjacency.to_contact_graph()
    assert back.neighbor_lists() == graph.neighbor_lists()
    assert adjacency.neighbor_lists() == graph.neighbor_lists()
    assert all(type(v) is int for row in adjacency.neighbor_lists() for v in row)


def test_validation_errors():
    with pytest.raises(ValueError):
        CSRAdjacency(
            indptr=np.array([0, 2]), indices=np.array([1], dtype=np.int32)
        )
    with pytest.raises(ValueError):
        CSRAdjacency.from_edges(3, np.array([0, 1]), np.array([1]))


def test_tiny_populations():
    empty = csr_powerlaw(0, 8.0, 2.0, np.random.default_rng(0))
    assert empty.num_nodes == 0 and empty.num_edges == 0
    single = csr_powerlaw(1, 8.0, 2.0, np.random.default_rng(0))
    assert single.num_nodes == 1 and single.num_edges == 0
