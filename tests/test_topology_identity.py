"""Contact-graph identity pins for the power-law builders.

``fixtures/contact_network_identity.json`` was recorded from the
per-edge ``ContactGraph.add_edge`` configuration model that preceded the
vectorised builder.  For each (population, mean contact-list size,
exponent, seed, replication) it holds the sha256 of
``contact_network(...).neighbor_lists()``, the edge count, and one
``rng.random()`` draw taken from the topology stream after the build.
Every core-engine result depends on these graphs and on the stream
position after them, so any builder change must reproduce them exactly.
The fixture includes graphs whose stub matching leaves a phone isolated,
which exercises the core's own repair draws.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.des.random import StreamFactory
from repro.topology.csr import csr_powerlaw
from repro.topology.generators import contact_network, powerlaw_configuration_model

FIXTURE = Path(__file__).parent / "fixtures" / "contact_network_identity.json"
CASES = json.loads(FIXTURE.read_text())["cases"]


def _topology_stream(case):
    return StreamFactory(case["seed"]).replication(case["replication"]).stream(
        "topology"
    )


def _case_id(case):
    return (
        f"n{case['population']}-m{case['mean_contact_list_size']:g}"
        f"-s{case['seed']}-r{case['replication']}"
    )


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_contact_network_matches_recorded_graph(case):
    rng = _topology_stream(case)
    graph = contact_network(
        case["population"],
        case["mean_contact_list_size"],
        rng,
        model="powerlaw",
        exponent=case["exponent"],
    )
    digest = hashlib.sha256(repr(graph.neighbor_lists()).encode()).hexdigest()
    assert digest == case["sha256"]
    assert graph.num_edges == case["num_edges"]
    assert float(rng.random()) == case["next_random"]


def test_fixture_covers_isolated_phone_repair():
    isolated = [
        case
        for case in CASES
        if powerlaw_configuration_model(
            case["population"],
            case["mean_contact_list_size"],
            case["exponent"],
            _topology_stream(case),
        ).isolated_nodes()
    ]
    assert isolated, "no fixture case exercises attach_isolated_nodes"


@pytest.mark.parametrize(
    "n, mean, seed", [(50, 4.0, 3), (100, 80.0, 0), (300, 80.0, 1), (1000, 80.0, 2)]
)
def test_csr_and_object_builders_wire_the_same_edges(n, mean, seed):
    """With no phone isolated, both builders make the same draws and edges."""
    csr_rng = np.random.default_rng(seed)
    object_rng = np.random.default_rng(seed)
    adjacency = csr_powerlaw(n, mean, 1.8, csr_rng)
    graph = powerlaw_configuration_model(n, mean, 1.8, object_rng)
    assert not graph.isolated_nodes()
    assert adjacency.neighbor_lists() == graph.neighbor_lists()
    assert csr_rng.bit_generator.state == object_rng.bit_generator.state
