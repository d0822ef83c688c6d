"""Random-graph generators for contact-list networks.

Stands in for the NGCE package ("Network Graphs for Computer
Epidemiologists") the paper modified to emit contact lists.  The paper's
requirement is a *reciprocal* contact network over 1000 phones whose
contact-list sizes follow a power law with mean 80; we provide that (the
configuration model, the default; Chung–Lu expected-degree weights; and
Barabási–Albert preferential attachment) plus the standard comparison
topologies epidemiologists use (Erdős–Rényi, Watts–Strogatz, ring
lattice, complete), all over :class:`~repro.topology.graph.ContactGraph`.

All generators take an explicit ``numpy`` generator so topology draws come
from their own stream (see :class:`repro.des.random.StreamFactory`).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .csr import configuration_model
from .graph import ContactGraph


def complete_graph(num_nodes: int) -> ContactGraph:
    """Every phone has every other phone in its contact list."""
    graph = ContactGraph(num_nodes)
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            graph.add_edge(u, v)
    return graph


def ring_lattice(num_nodes: int, k: int) -> ContactGraph:
    """Ring where each node connects to its ``k`` nearest neighbours.

    ``k`` must be even (``k/2`` on each side) and less than ``num_nodes``.
    """
    if k % 2 != 0:
        raise ValueError(f"ring lattice requires even k, got {k}")
    if k >= num_nodes:
        raise ValueError(f"k={k} must be < num_nodes={num_nodes}")
    graph = ContactGraph(num_nodes)
    half = k // 2
    for u in range(num_nodes):
        for offset in range(1, half + 1):
            graph.add_edge(u, (u + offset) % num_nodes)
    return graph


def erdos_renyi(
    num_nodes: int,
    mean_degree: float,
    rng: np.random.Generator,
) -> ContactGraph:
    """G(n, p) with ``p`` chosen to hit the requested mean degree."""
    if num_nodes < 2:
        return ContactGraph(num_nodes)
    p = mean_degree / (num_nodes - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"mean_degree={mean_degree} infeasible for n={num_nodes} (p={p:.4f})"
        )
    graph = ContactGraph(num_nodes)
    # Vectorised upper-triangle Bernoulli draws, chunked by row.
    for u in range(num_nodes - 1):
        targets = np.nonzero(rng.random(num_nodes - u - 1) < p)[0]
        for t in targets:
            graph.add_edge(u, u + 1 + int(t))
    return graph


def watts_strogatz(
    num_nodes: int,
    k: int,
    rewire_prob: float,
    rng: np.random.Generator,
) -> ContactGraph:
    """Small-world graph: ring lattice with random rewiring."""
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValueError(f"rewire_prob must be in [0, 1], got {rewire_prob}")
    graph = ring_lattice(num_nodes, k)
    half = k // 2
    for u in range(num_nodes):
        for offset in range(1, half + 1):
            v = (u + offset) % num_nodes
            if rng.random() >= rewire_prob:
                continue
            if not graph.has_edge(u, v):
                continue  # already rewired away by the other endpoint
            # Pick a new endpoint avoiding self-loops and duplicates.
            for _ in range(num_nodes):
                w = int(rng.integers(0, num_nodes))
                if w != u and not graph.has_edge(u, w):
                    graph.remove_edge(u, v)
                    graph.add_edge(u, w)
                    break
    return graph


def barabasi_albert(
    num_nodes: int,
    edges_per_node: int,
    rng: np.random.Generator,
) -> ContactGraph:
    """Preferential-attachment scale-free graph (mean degree ≈ 2m).

    Implemented with the standard repeated-nodes trick: attachment targets
    are sampled uniformly from a list containing each node once per incident
    edge.
    """
    m = edges_per_node
    if m < 1:
        raise ValueError(f"edges_per_node must be >= 1, got {m}")
    if num_nodes <= m:
        raise ValueError(f"num_nodes={num_nodes} must exceed edges_per_node={m}")
    graph = ContactGraph(num_nodes)
    repeated: list = []
    # Seed with a star over the first m+1 nodes so every early node has
    # nonzero degree.
    for v in range(1, m + 1):
        graph.add_edge(0, v)
        repeated.extend((0, v))
    for u in range(m + 1, num_nodes):
        targets: set = set()
        while len(targets) < m:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for v in targets:
            graph.add_edge(u, v)
            repeated.extend((u, v))
    return graph


def chung_lu_powerlaw(
    num_nodes: int,
    mean_degree: float,
    exponent: float,
    rng: np.random.Generator,
    min_weight: float = 1.0,
) -> ContactGraph:
    """Expected-degree (Chung–Lu) graph with power-law weights.

    Node weights follow a truncated Pareto with tail exponent
    ``exponent`` (> 2 so the mean exists), rescaled so the *expected* mean
    degree equals ``mean_degree``.  Edge (u, v) appears with probability
    ``min(1, w_u * w_v / sum_w)``.

    This is the distribution family the paper targets ("power-law random
    graph ... average contact list size of 80").
    """
    if exponent <= 2.0:
        raise ValueError(f"exponent must be > 2 for finite mean, got {exponent}")
    if mean_degree <= 0:
        raise ValueError(f"mean_degree must be > 0, got {mean_degree}")
    if mean_degree >= num_nodes:
        raise ValueError(
            f"mean_degree={mean_degree} infeasible for n={num_nodes}"
        )
    # Pareto(alpha) sample with minimum min_weight.
    alpha = exponent - 1.0
    weights = min_weight * (1.0 + rng.pareto(alpha, size=num_nodes))
    # Cap weights to keep p_ij = w_i w_j / S <= 1 achievable and avoid one
    # hub absorbing the whole edge budget: standard sqrt(S) truncation.
    weights = weights / weights.mean() * mean_degree
    total = weights.sum()
    cap = math.sqrt(total)
    weights = np.minimum(weights, cap)
    # Rescale after capping so the expected mean degree is restored.
    weights = weights / weights.mean() * mean_degree
    total = weights.sum()

    graph = ContactGraph(num_nodes)
    # Row-wise vectorised Bernoulli over the upper triangle.
    for u in range(num_nodes - 1):
        w_rest = weights[u + 1 :]
        probs = np.minimum(1.0, weights[u] * w_rest / total)
        hits = np.nonzero(rng.random(len(probs)) < probs)[0]
        for h in hits:
            graph.add_edge(u, u + 1 + int(h))
    return graph


def powerlaw_configuration_model(
    num_nodes: int,
    mean_degree: float,
    exponent: float,
    rng: np.random.Generator,
    k_max: Optional[int] = None,
) -> ContactGraph:
    """Power-law graph via the configuration model (NGCE-style).

    Draws a degree sequence from a truncated power law
    ``p(k) ∝ k^-exponent`` on ``[k_min, k_max]`` with ``k_min`` calibrated
    so the distribution's mean matches ``mean_degree``, then wires stubs by
    random matching, discarding self-loops and duplicate edges (see
    :func:`~repro.topology.csr.configuration_model`, which this wraps, so
    the edges equal :func:`~repro.topology.csr.csr_powerlaw`'s from one
    seed whenever no phone is left isolated).

    This family matches what the paper needs from NGCE: contact lists whose
    *mean* is 80 but whose *median* is much smaller (address books are
    heavy-tailed — most users keep tens of contacts, a few keep hundreds),
    which is what gives contact-list viruses their multi-day spread while
    leaving random-dialing viruses fast.
    """
    adjacency = configuration_model(num_nodes, mean_degree, exponent, rng, k_max)
    return ContactGraph.from_sorted_rows(adjacency.neighbor_lists())


def attach_isolated_nodes(graph: ContactGraph, rng: np.random.Generator) -> int:
    """Give every isolated node one random contact.

    A phone with an empty contact list can neither receive nor spread a
    contact-list virus; the paper's contact lists have mean size 80, so
    isolated phones are an artifact of random generation.  Returns the
    number of nodes fixed.
    """
    isolated = graph.isolated_nodes()
    n = graph.num_nodes
    if n < 2:
        return 0
    for node in isolated:
        while True:
            other = int(rng.integers(0, n))
            if other != node:
                graph.add_edge(node, other)
                break
    return len(isolated)


def contact_network(
    num_nodes: int,
    mean_degree: float,
    rng: np.random.Generator,
    model: str = "powerlaw",
    exponent: float = 2.5,
    rewire_prob: float = 0.1,
    ensure_no_isolated: bool = True,
) -> ContactGraph:
    """Generate a contact-list network per the paper's topology setup.

    Parameters
    ----------
    num_nodes:
        Population size (paper: 1000; scaling study: 2000).
    mean_degree:
        Target average contact-list size (paper: 80).
    model:
        One of ``"powerlaw"`` (configuration model, the default and the
        paper's choice), ``"chunglu"`` (expected-degree power law),
        ``"ba"`` (Barabási–Albert), ``"random"`` (Erdős–Rényi),
        ``"smallworld"`` (Watts–Strogatz), ``"ring"``, ``"complete"``.
    exponent:
        Power-law exponent for ``model="powerlaw"``/``"chunglu"``.  Note
        the two parameterisations differ: the configuration model uses the
        degree-distribution exponent directly (email address books fit
        ≈1.7–2.0), while Chung–Lu takes a tail exponent > 2.
    rewire_prob:
        Rewiring probability for ``model="smallworld"``.
    ensure_no_isolated:
        Attach a random contact to isolated phones (see
        :func:`attach_isolated_nodes`).
    """
    if model == "powerlaw":
        graph = powerlaw_configuration_model(num_nodes, mean_degree, exponent, rng)
    elif model == "chunglu":
        graph = chung_lu_powerlaw(num_nodes, mean_degree, exponent, rng)
    elif model == "ba":
        m = max(1, int(round(mean_degree / 2)))
        graph = barabasi_albert(num_nodes, m, rng)
    elif model == "random":
        graph = erdos_renyi(num_nodes, mean_degree, rng)
    elif model == "smallworld":
        k = max(2, int(round(mean_degree / 2)) * 2)
        graph = watts_strogatz(num_nodes, k, rewire_prob, rng)
    elif model == "ring":
        k = max(2, int(round(mean_degree / 2)) * 2)
        graph = ring_lattice(num_nodes, k)
    elif model == "complete":
        graph = complete_graph(num_nodes)
    else:
        raise ValueError(
            f"unknown topology model {model!r}; expected one of "
            "powerlaw/ba/random/smallworld/ring/complete"
        )
    if ensure_no_isolated and model not in ("complete",):
        attach_isolated_nodes(graph, rng)
    return graph


__all__ = [
    "complete_graph",
    "ring_lattice",
    "erdos_renyi",
    "watts_strogatz",
    "barabasi_albert",
    "chung_lu_powerlaw",
    "attach_isolated_nodes",
    "contact_network",
]
