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
from repro.topology.csr import _insert_edges
from repro.topology.generators import contact_network


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
    """edges() -> from_edges rebuilds the same arrays; rows are Python ints."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]
    adjacency = CSRAdjacency.from_edges(6, *np.array(edges).T)
    assert adjacency.num_edges == 5
    assert list(adjacency.edges()) == edges
    back = CSRAdjacency.from_edges(6, *np.array(list(adjacency.edges())).T)
    assert np.array_equal(back.indptr, adjacency.indptr)
    assert np.array_equal(back.indices, adjacency.indices)
    assert adjacency.neighbor_lists() == ((1, 2), (0, 2), (0, 1), (4,), (3, 5), (4,))
    assert all(type(v) is int for row in adjacency.neighbor_lists() for v in row)
    assert all(type(v) is int for edge in adjacency.edges() for v in edge)


def test_insert_edges_keeps_rows_sorted_and_in_place():
    """New contacts sharing an insert position land in their own rows,
    sorted: two of one row (0 and 3 into row 2) and those of the
    consecutive empty rows 1 and 2."""
    adjacency = CSRAdjacency.from_edges(5, np.array([0]), np.array([4]))
    spliced = _insert_edges(adjacency, np.array([0, 1, 2]), np.array([2, 3, 3]))
    rebuilt = CSRAdjacency.from_edges(
        5, np.array([0, 0, 1, 2]), np.array([4, 2, 3, 3])
    )
    assert spliced.neighbor_lists() == rebuilt.neighbor_lists()
    assert spliced.neighbor_lists() == ((2, 4), (3,), (0, 3), (1, 2), (0,))


@pytest.mark.parametrize(
    "model", ["powerlaw", "chunglu", "ba", "random", "smallworld", "ring", "complete"]
)
def test_every_model_builds_a_well_formed_graph(model):
    rng = np.random.default_rng(5)
    graph = contact_network(60, 6.0, rng, model=model, exponent=2.5)
    assert graph.num_nodes == 60
    _assert_structural_invariants(graph)


def test_validation_errors():
    with pytest.raises(ValueError):
        CSRAdjacency(
            indptr=np.array([0, 2]), indices=np.array([1], dtype=np.int32)
        )
    with pytest.raises(ValueError):
        CSRAdjacency.from_edges(3, np.array([0, 1]), np.array([1]))


@pytest.mark.parametrize(
    "u, v",
    [
        ([0], [5]),  # key 0*3+5 would decode to the edge (1, 2)
        ([0], [3]),
        ([-1], [1]),
        ([0, 1], [1, 3]),
        (np.array([0], dtype=np.int32), np.array([7], dtype=np.int32)),
        ([5], [5]),  # an out-of-range self-loop is rejected, not dropped
        ([-2], [-2]),
        ([0, 3], [1, 3]),
    ],
)
def test_from_edges_rejects_out_of_range_endpoints(u, v):
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        CSRAdjacency.from_edges(3, np.asarray(u), np.asarray(v))


@pytest.mark.parametrize("node", [-1, 3, 10])
def test_neighbors_rejects_out_of_range_node(node):
    adjacency = CSRAdjacency.from_edges(3, np.array([0, 1]), np.array([1, 2]))
    with pytest.raises(ValueError, match="out of range"):
        adjacency.neighbors(node)
    with pytest.raises(ValueError, match="out of range"):
        adjacency.has_edge(node, 0)
    with pytest.raises(ValueError, match="out of range"):
        adjacency.has_edge(0, node)


def test_tiny_populations():
    empty = csr_powerlaw(0, 8.0, 2.0, np.random.default_rng(0))
    assert empty.num_nodes == 0 and empty.num_edges == 0
    single = csr_powerlaw(1, 8.0, 2.0, np.random.default_rng(0))
    assert single.num_nodes == 1 and single.num_edges == 0
