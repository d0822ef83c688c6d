"""Contract of the per-process contact-graph memo.

:func:`repro.topology.memo.shared_contact_network` must be invisible in
every result: a hit yields the graph a fresh build would, each key field
separates graphs, stored arrays cannot be mutated by one model under
another, the byte bound evicts the least recently used graphs, and
``run_scenario`` builds one (seed, replication) graph once however many
responses run on it.
"""

from __future__ import annotations

import pytest

from repro.core.parameters import BlacklistConfig, NetworkParameters
from repro.core.scenarios import baseline_scenario
from repro.core.serialization import result_to_dict
from repro.core.simulation import run_scenario
from repro.des.random import StreamFactory
from repro.topology import memo
from repro.topology.generators import contact_network
from repro.topology.memo import clear_graph_memo, shared_contact_network

BASE = {"population": 120, "mean_contact_list_size": 10.0, "model": "powerlaw",
        "exponent": 1.8, "seed": 0, "replication": 0}


@pytest.fixture(autouse=True)
def empty_memo():
    clear_graph_memo()
    yield
    clear_graph_memo()


@pytest.fixture
def builds(monkeypatch):
    """Count the memo's calls into ``contact_network``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return contact_network(*args, **kwargs)

    monkeypatch.setattr(memo, "contact_network", counting)
    return calls


def _stream(seed, replication):
    return StreamFactory(seed).replication(replication).stream("topology")


def _shared(params):
    return shared_contact_network(
        params["population"],
        params["mean_contact_list_size"],
        _stream(params["seed"], params["replication"]),
        model=params["model"],
        exponent=params["exponent"],
    )


def _fresh_lists(params):
    return contact_network(
        params["population"],
        params["mean_contact_list_size"],
        _stream(params["seed"], params["replication"]),
        model=params["model"],
        exponent=params["exponent"],
    ).neighbor_lists()


def test_hit_equals_fresh_build(builds):
    first = _shared(BASE)
    second = _shared(BASE)
    assert second is first
    assert len(builds) == 1
    assert second.neighbor_lists() == _fresh_lists(BASE)


@pytest.mark.parametrize(
    "field, value",
    [("population", 121), ("mean_contact_list_size", 12.0), ("model", "random"),
     ("exponent", 2.0), ("seed", 1), ("replication", 1)],
)
def test_every_key_field_separates_graphs(builds, field, value):
    changed = {**BASE, field: value}
    _shared(BASE)
    adjacency = _shared(changed)
    assert len(builds) == 2
    assert adjacency.neighbor_lists() == _fresh_lists(changed)


def test_stored_arrays_are_read_only():
    adjacency = _shared(BASE)
    assert not adjacency.indptr.flags.writeable
    assert not adjacency.indices.flags.writeable
    with pytest.raises(ValueError):
        adjacency.indices[0] = 0


def test_used_generator_is_rejected():
    rng = _stream(0, 0)
    rng.random()
    with pytest.raises(ValueError, match="fresh"):
        shared_contact_network(120, 10.0, rng, model="powerlaw", exponent=1.8)


def test_byte_bound_evicts_least_recently_used(builds, monkeypatch):
    graphs = [{**BASE, "seed": seed} for seed in range(3)]
    sizes = [
        adjacency.indptr.nbytes + adjacency.indices.nbytes
        for adjacency in map(_shared, graphs)
    ]
    assert len(builds) == 3
    clear_graph_memo()
    builds.clear()
    # Room for any two of the graphs, not for all three.
    monkeypatch.setattr(memo, "GRAPH_MEMO_BYTES", sum(sizes) - min(sizes))
    for params in graphs:
        _shared(params)
    assert len(builds) == 3
    _shared(graphs[2])
    _shared(graphs[1])
    assert len(builds) == 3
    _shared(graphs[0])  # evicted when graph 2 arrived
    assert len(builds) == 4
    # Rebuilding graph 0 pushed out graph 2, the least recently used.
    _shared(graphs[1])
    assert len(builds) == 4
    _shared(graphs[2])
    assert len(builds) == 5


def test_run_scenario_builds_a_replication_graph_once(builds):
    base = baseline_scenario(
        1, network=NetworkParameters(population=150), duration=24.0
    )
    scenarios = [
        base,
        base.with_responses(BlacklistConfig(threshold=5), suffix="blacklist"),
    ]
    shared = [result_to_dict(run_scenario(s, seed=3, replication=1)) for s in scenarios]
    assert len(builds) == 1
    fresh = []
    for scenario in scenarios:
        clear_graph_memo()
        fresh.append(result_to_dict(run_scenario(scenario, seed=3, replication=1)))
    assert shared == fresh
    # The virus spread past patient zero, so the results depend on the graph.
    assert len(shared[0]["infection_times"]) > 1
