"""Property-based tests for topology generation (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    CSRAdjacency,
    contact_network,
    dumps_contact_lists,
    loads_contact_lists,
)
from repro.topology.csr import configuration_model


@given(
    n=st.integers(10, 120),
    mean_degree=st.floats(2.0, 8.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_generated_graphs_are_reciprocal_and_loop_free(n, mean_degree, seed):
    rng = np.random.default_rng(seed)
    graph = contact_network(n, mean_degree, rng, model="powerlaw", exponent=1.8)
    lists = graph.neighbor_lists()
    assert all(u in lists[v] for u, row in enumerate(lists) for v in row)
    for u, v in graph.edges():
        assert u != v
        assert 0 <= u < n and 0 <= v < n


@given(
    n=st.integers(10, 120),
    mean_degree=st.floats(2.0, 8.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_degree_sum_is_twice_edge_count(n, mean_degree, seed):
    rng = np.random.default_rng(seed)
    graph = configuration_model(n, mean_degree, 1.8, rng)
    assert sum(graph.degrees()) == 2 * graph.num_edges


@given(
    n=st.integers(5, 60),
    seed=st.integers(0, 10_000),
    model=st.sampled_from(["powerlaw", "random", "ba"]),
)
@settings(max_examples=30, deadline=None)
def test_contact_list_file_round_trip(n, seed, model):
    rng = np.random.default_rng(seed)
    graph = contact_network(n, 4.0, rng, model=model, exponent=1.8)
    loaded = loads_contact_lists(dumps_contact_lists(graph))
    assert loaded.num_nodes == graph.num_nodes
    assert sorted(loaded.edges()) == sorted(graph.edges())


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_from_edges_idempotent_under_duplicates(edges):
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    graph = CSRAdjacency.from_edges(30, pairs[:, 0], pairs[:, 1])
    again = CSRAdjacency.from_edges(30, *np.concatenate((pairs, pairs[:, ::-1])).T)
    assert sorted(graph.edges()) == sorted(again.edges())
    unique = {tuple(sorted(e)) for e in edges}
    assert graph.num_edges == len(unique)
