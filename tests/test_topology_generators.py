"""Tests for the random-graph generators (NGCE substitute)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import (
    attach_isolated_nodes,
    barabasi_albert,
    chung_lu_powerlaw,
    complete_graph,
    contact_network,
    erdos_renyi,
    ring_lattice,
    watts_strogatz,
)
from repro.topology.csr import CSRAdjacency, configuration_model, solve_powerlaw_k_min
from repro.topology.metrics import DegreeStats, largest_component_fraction


def _is_reciprocal(graph):
    lists = graph.neighbor_lists()
    return all(u in lists[v] for u, row in enumerate(lists) for v in row)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def test_complete_graph():
    graph = complete_graph(6)
    assert graph.num_edges == 15
    assert graph.degrees().tolist() == [5] * 6


def test_ring_lattice_regular():
    graph = ring_lattice(10, 4)
    assert graph.degrees().tolist() == [4] * 10
    assert graph.has_edge(0, 1)
    assert graph.has_edge(0, 2)
    assert not graph.has_edge(0, 3)


def test_ring_lattice_validation():
    with pytest.raises(ValueError):
        ring_lattice(10, 3)  # odd k
    with pytest.raises(ValueError):
        ring_lattice(4, 4)  # k >= n


def test_erdos_renyi_mean_degree(rng):
    graph = erdos_renyi(500, 12.0, rng)
    assert abs(graph.mean_degree() - 12.0) < 1.5
    assert _is_reciprocal(graph)


def test_erdos_renyi_infeasible_density(rng):
    with pytest.raises(ValueError):
        erdos_renyi(10, 20.0, rng)


def test_watts_strogatz_preserves_edge_count(rng):
    graph = watts_strogatz(100, 6, 0.2, rng)
    assert graph.num_edges == 300
    assert abs(graph.mean_degree() - 6.0) < 1e-9


def test_watts_strogatz_zero_rewire_is_lattice(rng):
    graph = watts_strogatz(20, 4, 0.0, rng)
    lattice = ring_lattice(20, 4)
    assert sorted(graph.edges()) == sorted(lattice.edges())


def test_watts_strogatz_rewire_prob_validation(rng):
    with pytest.raises(ValueError):
        watts_strogatz(20, 4, 1.5, rng)


def test_barabasi_albert_mean_degree(rng):
    graph = barabasi_albert(400, 5, rng)
    # mean degree ≈ 2m for large n
    assert abs(graph.mean_degree() - 10.0) < 1.0
    assert largest_component_fraction(graph) == 1.0


def test_barabasi_albert_hubs_exist(rng):
    graph = barabasi_albert(500, 3, rng)
    stats = DegreeStats.of(graph)
    assert stats.maximum > 4 * stats.mean  # heavy tail


def test_barabasi_albert_validation(rng):
    with pytest.raises(ValueError):
        barabasi_albert(5, 5, rng)
    with pytest.raises(ValueError):
        barabasi_albert(10, 0, rng)


def test_chung_lu_powerlaw_mean(rng):
    graph = chung_lu_powerlaw(800, 20.0, 2.5, rng)
    assert abs(graph.mean_degree() - 20.0) < 4.0
    assert _is_reciprocal(graph)


def test_chung_lu_validation(rng):
    with pytest.raises(ValueError):
        chung_lu_powerlaw(100, 10.0, 1.5, rng)  # exponent <= 2
    with pytest.raises(ValueError):
        chung_lu_powerlaw(100, 200.0, 2.5, rng)  # infeasible mean


def test_solve_powerlaw_k_min_monotone():
    k1 = solve_powerlaw_k_min(10.0, 1.8, 500)
    k2 = solve_powerlaw_k_min(50.0, 1.8, 500)
    assert k1 < k2


def test_solve_powerlaw_k_min_unreachable():
    with pytest.raises(ValueError):
        solve_powerlaw_k_min(1000.0, 1.8, 500)


def test_configuration_model_paper_settings(rng):
    """The paper's topology: 1000 phones, mean contact list ≈ 80."""
    graph = configuration_model(1000, 80.0, 1.8, rng)
    stats = DegreeStats.of(graph)
    assert abs(stats.mean - 80.0) < 12.0
    # Heavy tail: median well below mean, hubs well above.
    assert stats.median < 0.8 * stats.mean
    assert stats.maximum > 2.5 * stats.mean
    assert _is_reciprocal(graph)


def test_configuration_model_reproducible():
    a = configuration_model(200, 10.0, 1.8, np.random.default_rng(7))
    b = configuration_model(200, 10.0, 1.8, np.random.default_rng(7))
    assert sorted(a.edges()) == sorted(b.edges())


def test_attach_isolated_nodes(rng):
    graph = CSRAdjacency.from_edges(10, np.array([0]), np.array([1]))
    fixed = attach_isolated_nodes(graph, rng)
    assert graph.num_edges == 1  # the input graph is left as it was
    assert fixed.has_edge(0, 1)
    assert 0 not in fixed.degrees()
    # One repair edge per isolated phone, less pairs that drew each other.
    assert 4 <= fixed.num_edges - 1 <= 8
    assert _is_reciprocal(fixed)
    assert all(list(row) == sorted(set(row)) for row in fixed.neighbor_lists())


def test_contact_network_dispatch(rng):
    for model in ("powerlaw", "chunglu", "ba", "random", "smallworld", "ring"):
        exponent = 2.5 if model == "chunglu" else 1.8
        graph = contact_network(200, 10.0, rng, model=model, exponent=exponent)
        assert graph.num_nodes == 200
        assert 0 not in graph.degrees()
    graph = contact_network(20, 10.0, rng, model="complete")
    assert graph.num_edges == 190


def test_contact_network_unknown_model(rng):
    with pytest.raises(ValueError):
        contact_network(100, 10.0, rng, model="mystery")
