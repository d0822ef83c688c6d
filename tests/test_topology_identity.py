"""Contact-graph identity pins for the power-law builders.

``fixtures/contact_network_identity.json`` was recorded from the
per-edge, set-based configuration model that preceded the vectorised
builder.  For each (population, mean contact-list size,
exponent, seed, replication) it holds the sha256 of
``contact_network(...).neighbor_lists()``, the edge count, and one
``rng.random()`` draw taken from the topology stream after the build.
Every core-engine result depends on these graphs and on the stream
position after them, so any builder change must reproduce them exactly.
The fixture includes graphs whose stub matching leaves a phone isolated,
which exercises the core's own repair draws.

``fixtures/topology_models_identity.json`` pins every other
``contact_network`` model (``chunglu``, ``ba``, ``random``,
``smallworld``, ``ring``, ``complete``) the same way, recorded from the
set-based graph builders before they moved onto CSR arrays; its sparse
``chunglu`` and ``random`` cases leave dozens of phones isolated, so the
repair draws are pinned for those models too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.des.random import StreamFactory
from repro.topology.csr import configuration_model, csr_powerlaw
from repro.topology.generators import contact_network

FIXTURES = Path(__file__).parent / "fixtures"
CASES = json.loads((FIXTURES / "contact_network_identity.json").read_text())["cases"]
MODEL_CASES = json.loads((FIXTURES / "topology_models_identity.json").read_text())[
    "cases"
]


def _topology_stream(case):
    return StreamFactory(case["seed"]).replication(case["replication"]).stream(
        "topology"
    )


def _case_id(case):
    return (
        f"n{case['population']}-m{case['mean_contact_list_size']:g}"
        f"-s{case['seed']}-r{case['replication']}"
    )


def _assert_matches_recorded_graph(case, model):
    rng = _topology_stream(case)
    graph = contact_network(
        case["population"],
        case["mean_contact_list_size"],
        rng,
        model=model,
        exponent=case["exponent"],
    )
    digest = hashlib.sha256(repr(graph.neighbor_lists()).encode()).hexdigest()
    assert digest == case["sha256"]
    assert graph.num_edges == case["num_edges"]
    assert float(rng.random()) == case["next_random"]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_contact_network_matches_recorded_graph(case):
    _assert_matches_recorded_graph(case, "powerlaw")


@pytest.mark.parametrize(
    "case", MODEL_CASES, ids=lambda case: f"{case['model']}-{_case_id(case)}"
)
def test_every_model_matches_recorded_graph(case):
    _assert_matches_recorded_graph(case, case["model"])


def test_model_fixture_covers_isolated_phone_repair():
    repaired = {
        case["model"]
        for case in MODEL_CASES
        if 0
        in contact_network(
            case["population"],
            case["mean_contact_list_size"],
            _topology_stream(case),
            model=case["model"],
            exponent=case["exponent"],
            ensure_no_isolated=False,
        ).degrees()
    }
    assert repaired == {"chunglu", "random"}


def test_fixture_covers_isolated_phone_repair():
    isolated = [
        case
        for case in CASES
        if 0
        in configuration_model(
            case["population"],
            case["mean_contact_list_size"],
            case["exponent"],
            _topology_stream(case),
        ).degrees()
    ]
    assert isolated, "no fixture case exercises attach_isolated_nodes"


@pytest.mark.parametrize(
    "n, mean, seed", [(50, 4.0, 3), (100, 80.0, 0), (300, 80.0, 1), (1000, 80.0, 2)]
)
def test_csr_and_object_builders_wire_the_same_edges(n, mean, seed):
    """With no phone isolated, the xl builder and the core's
    ``contact_network`` make the same draws and wire the same edges."""
    csr_rng = np.random.default_rng(seed)
    core_rng = np.random.default_rng(seed)
    assert 0 not in configuration_model(n, mean, 1.8, np.random.default_rng(seed)).degrees()
    adjacency = csr_powerlaw(n, mean, 1.8, csr_rng)
    graph = contact_network(n, mean, core_rng, exponent=1.8)
    assert adjacency.neighbor_lists() == graph.neighbor_lists()
    assert np.array_equal(adjacency.indptr, graph.indptr)
    assert np.array_equal(adjacency.indices, graph.indices)
    assert csr_rng.bit_generator.state == core_rng.bit_generator.state
