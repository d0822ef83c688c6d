"""Tests for graph metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import (
    DegreeStats,
    average_clustering,
    average_path_length,
    clustering_coefficient,
    complete_graph,
    connected_components,
    degree_histogram,
    erdos_renyi,
    largest_component_fraction,
    powerlaw_exponent_mle,
    ring_lattice,
    shortest_path_lengths,
)
from repro.topology.csr import _from_pairs


def test_degree_stats():
    graph = _from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    stats = DegreeStats.of(graph)
    assert stats.count == 4
    assert stats.mean == pytest.approx(1.5)
    assert stats.minimum == 1
    assert stats.maximum == 3
    assert stats.median == 1.0


def test_degree_stats_empty():
    stats = DegreeStats.of(_from_pairs(0, []))
    assert stats.count == 0
    assert stats.mean == 0.0


def test_degree_histogram():
    graph = _from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    assert degree_histogram(graph) == {3: 1, 1: 3}


def test_connected_components():
    graph = _from_pairs(6, [(0, 1), (1, 2), (3, 4)])
    components = connected_components(graph)
    assert components[0] == [0, 1, 2]
    assert components[1] == [3, 4]
    assert components[2] == [5]
    assert largest_component_fraction(graph) == pytest.approx(0.5)


def test_clustering_complete_graph():
    graph = complete_graph(5)
    assert clustering_coefficient(graph, 0) == pytest.approx(1.0)
    assert average_clustering(graph) == pytest.approx(1.0)


def test_clustering_star_graph():
    graph = _from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    assert clustering_coefficient(graph, 0) == 0.0
    assert clustering_coefficient(graph, 1) == 0.0  # degree < 2


def test_clustering_triangle_plus_leaf():
    graph = _from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    # Node 2 has neighbours {0, 1, 3}; one of the three possible links (0-1).
    assert clustering_coefficient(graph, 2) == pytest.approx(1.0 / 3.0)


def test_sampled_clustering_close_to_exact():
    rng = np.random.default_rng(0)
    graph = erdos_renyi(300, 12.0, rng)
    exact = average_clustering(graph)
    sampled = average_clustering(graph, sample=150, rng=np.random.default_rng(1))
    assert abs(exact - sampled) < 0.03


def test_shortest_paths_ring():
    graph = ring_lattice(8, 2)
    distances = shortest_path_lengths(graph, 0)
    assert distances[1] == 1
    assert distances[4] == 4
    assert len(distances) == 8


def test_average_path_length_complete():
    assert average_path_length(complete_graph(6)) == pytest.approx(1.0)


def test_average_path_length_disconnected_uses_largest():
    graph = _from_pairs(5, [(0, 1), (1, 2), (3, 4)])
    # Largest component path lengths: (0-1)=1, (1-2)=1, (0-2)=2 → mean 4/3.
    assert average_path_length(graph) == pytest.approx(4.0 / 3.0)


def test_powerlaw_mle_recovers_exponent():
    rng = np.random.default_rng(3)
    alpha_true = 2.5
    samples = (1.0 * (1 - rng.random(50000)) ** (-1.0 / (alpha_true - 1))).astype(int)
    # Discretisation distorts the smallest values; fit the tail only (the
    # standard Clauset-style practice).
    alpha_hat, tail = powerlaw_exponent_mle([s for s in samples if s >= 5], x_min=5)
    assert tail > 1000
    assert abs(alpha_hat - alpha_true) < 0.35


def test_powerlaw_mle_distinguishes_heavy_from_light_tails():
    rng = np.random.default_rng(4)
    heavy = (30.0 * (1 - rng.random(20000)) ** (-1.0 / 1.2)).astype(int)
    light = rng.poisson(30.0, size=20000)
    # Fit both tails above the same cutoff: the Poisson tail decays much
    # faster, so its fitted exponent is far larger.
    alpha_heavy, _ = powerlaw_exponent_mle([s for s in heavy if s >= 30], x_min=30)
    alpha_light, _ = powerlaw_exponent_mle([s for s in light if s >= 30], x_min=30)
    assert alpha_heavy + 1.0 < alpha_light


def test_powerlaw_mle_needs_tail():
    with pytest.raises(ValueError):
        powerlaw_exponent_mle([1], x_min=1)
