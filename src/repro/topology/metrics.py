"""Graph metrics used to validate generated topologies.

The tests and the topology example use these to check that generated
networks have the properties the paper relies on (mean contact-list size,
heavy-tailed degree distribution, connectivity).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .csr import CSRAdjacency


@dataclass(frozen=True)
class DegreeStats:
    """Summary statistics of a degree sequence."""

    count: int
    mean: float
    std: float
    minimum: int
    maximum: int
    median: float

    @staticmethod
    def of(graph: CSRAdjacency) -> "DegreeStats":
        """Compute degree statistics for ``graph``."""
        degrees = np.asarray(graph.degrees(), dtype=float)
        if len(degrees) == 0:
            return DegreeStats(0, 0.0, 0.0, 0, 0, 0.0)
        return DegreeStats(
            count=len(degrees),
            mean=float(degrees.mean()),
            std=float(degrees.std()),
            minimum=int(degrees.min()),
            maximum=int(degrees.max()),
            median=float(np.median(degrees)),
        )


def degree_histogram(graph: CSRAdjacency) -> Dict[int, int]:
    """Mapping degree -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for degree in graph.degrees().tolist():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def connected_components(graph: CSRAdjacency) -> List[List[int]]:
    """Connected components (BFS), each sorted, largest first."""
    n = graph.num_nodes
    lists = graph.neighbor_lists()
    seen = [False] * n
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        component = []
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor in lists[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    queue.append(neighbor)
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return components


def largest_component_fraction(graph: CSRAdjacency) -> float:
    """Fraction of nodes in the largest connected component."""
    if graph.num_nodes == 0:
        return 0.0
    return len(connected_components(graph)[0]) / graph.num_nodes


def clustering_coefficient(graph: CSRAdjacency, node: int) -> float:
    """Local clustering coefficient of one node."""
    return _clustering(graph.neighbor_lists(), node)


def _clustering(lists: Sequence[Tuple[int, ...]], node: int) -> float:
    neighbors = lists[node]
    k = len(neighbors)
    if k < 2:
        return 0.0
    neighbor_set = set(neighbors)
    # Each link between two neighbours is seen from both of its ends.
    links = sum(len(neighbor_set.intersection(lists[u])) for u in neighbors) // 2
    return 2.0 * links / (k * (k - 1))


def average_clustering(
    graph: CSRAdjacency,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Average local clustering; optionally over a random node sample."""
    n = graph.num_nodes
    if n == 0:
        return 0.0
    if sample is not None and sample < n:
        if rng is None:
            rng = np.random.default_rng(0)
        nodes: Sequence[int] = rng.choice(n, size=sample, replace=False).tolist()
    else:
        nodes = range(n)
    lists = graph.neighbor_lists()
    values = [_clustering(lists, node) for node in nodes]
    return float(np.mean(values)) if values else 0.0


def shortest_path_lengths(graph: CSRAdjacency, source: int) -> Dict[int, int]:
    """BFS hop distances from ``source`` to every reachable node."""
    return _distances(graph.neighbor_lists(), source)


def _distances(lists: Sequence[Tuple[int, ...]], source: int) -> Dict[int, int]:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in lists[node]:
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def average_path_length(
    graph: CSRAdjacency,
    sample_sources: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Mean shortest-path length within the largest component.

    Exact when ``sample_sources`` is None; otherwise estimated from BFS
    trees rooted at a random sample of sources.
    """
    component = connected_components(graph)[0] if graph.num_nodes else []
    if len(component) < 2:
        return 0.0
    if sample_sources is not None and sample_sources < len(component):
        if rng is None:
            rng = np.random.default_rng(0)
        sources = rng.choice(component, size=sample_sources, replace=False).tolist()
    else:
        sources = component
    total = 0
    pairs = 0
    component_set = set(component)
    lists = graph.neighbor_lists()
    for source in sources:
        for node, dist in _distances(lists, source).items():
            if node != source and node in component_set:
                total += dist
                pairs += 1
    return total / pairs if pairs else 0.0


def degree_assortativity(graph: CSRAdjacency) -> float:
    """Pearson correlation of degrees across edges (Newman's r).

    Social networks are typically assortative (hubs befriend hubs) while
    configuration-model graphs are near-neutral with a slight
    disassortative bias from hub saturation; used by topology studies to
    characterise generated networks.  Returns 0 for degenerate graphs
    (no edges or uniform degree).
    """
    degrees = graph.degrees().tolist()
    x: List[float] = []
    y: List[float] = []
    for u, v in graph.edges():
        # Each undirected edge contributes both orientations so the
        # correlation is symmetric.
        x.extend((degrees[u], degrees[v]))
        y.extend((degrees[v], degrees[u]))
    if not x:
        return 0.0
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.std() == 0 or y_arr.std() == 0:
        return 0.0
    return float(np.corrcoef(x_arr, y_arr)[0, 1])


def powerlaw_exponent_mle(
    degrees: Sequence[int],
    x_min: int = 1,
) -> Tuple[float, int]:
    """Continuous MLE (Clauset et al. style) of a power-law tail exponent.

    Returns ``(alpha_hat, tail_size)`` over degrees >= ``x_min``.  Used by
    tests to check that power-law generators produce heavier tails than
    Erdős–Rényi graphs of the same mean degree.
    """
    tail = [d for d in degrees if d >= x_min and d > 0]
    if len(tail) < 2:
        raise ValueError(f"need at least 2 tail observations >= x_min={x_min}")
    logs = [math.log(d / (x_min - 0.5)) for d in tail]
    alpha = 1.0 + len(tail) / sum(logs)
    return alpha, len(tail)


__all__ = [
    "DegreeStats",
    "degree_histogram",
    "connected_components",
    "largest_component_fraction",
    "clustering_coefficient",
    "average_clustering",
    "shortest_path_lengths",
    "average_path_length",
    "powerlaw_exponent_mle",
]
