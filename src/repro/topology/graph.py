"""Undirected contact graph.

The paper connects phones through *reciprocal* contact lists ("if phone 22
is in the contact list of phone 83, then phone 83 is in the contact list of
phone 22"), i.e. an undirected graph over integer phone ids.  This module
implements that structure directly — adjacency sets over a dense id range —
so the simulation can look up contact lists as tuples without per-event
overhead.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class ContactGraph:
    """Simple undirected graph on nodes ``0 .. n-1``.

    Self-loops and parallel edges are rejected/ignored respectively, because
    a phone is never in its own contact list and a contact appears once.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self._n = num_nodes
        self._adjacency: List[Set[int]] = [set() for _ in range(num_nodes)]
        self._num_edges = 0
        self._neighbor_lists: Optional[Tuple[Tuple[int, ...], ...]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Tuple[int, int]]) -> "ContactGraph":
        """Build a graph from an edge iterable (duplicates ignored)."""
        graph = cls(num_nodes)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_sorted_rows(cls, rows: Sequence[Tuple[int, ...]]) -> "ContactGraph":
        """Build a graph from every node's sorted contact tuple.

        ``rows`` must already be a reciprocal, loop-free, duplicate-free
        adjacency with each row sorted, as
        :meth:`~repro.topology.csr.CSRAdjacency.neighbor_lists` yields; it
        is trusted, not re-checked edge by edge.  The rows become the
        cached :meth:`neighbor_lists`, so an unmodified graph never
        re-sorts them.
        """
        graph = cls(len(rows))
        graph._adjacency = [set(row) for row in rows]
        graph._num_edges = sum(map(len, rows)) // 2
        graph._neighbor_lists = tuple(rows)
        return graph

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge (u, v).  Returns True if newly added."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self._neighbor_lists = None
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge (u, v).  Returns True if it existed."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._adjacency[u]:
            return False
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1
        self._neighbor_lists = None
        return True

    # -- inspection -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes (phones)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def has_edge(self, u: int, v: int) -> bool:
        """True if u and v are mutual contacts."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adjacency[u]

    def degree(self, node: int) -> int:
        """Contact-list size of ``node``."""
        self._check_node(node)
        return len(self._adjacency[node])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Contact list of ``node`` as a sorted tuple (deterministic order)."""
        self._check_node(node)
        lists = self._neighbor_lists
        if lists is not None:
            return lists[node]
        return tuple(sorted(self._adjacency[node]))

    def neighbor_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Every node's sorted contact tuple, materialized once.

        The materialization is cached until the edge set changes, so a
        replication set pinned to one graph builds the population's
        contact lists a single time instead of sorting every adjacency
        set per model construction.
        """
        if self._neighbor_lists is None:
            self._neighbor_lists = tuple(
                tuple(sorted(adj)) for adj in self._adjacency
            )
        return self._neighbor_lists

    def degrees(self) -> List[int]:
        """Degree of every node, indexed by node id."""
        return [len(adj) for adj in self._adjacency]

    def mean_degree(self) -> float:
        """Average contact-list size."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._num_edges / self._n

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as (u, v) with u < v, sorted."""
        for u in range(self._n):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    def contact_lists(self) -> Dict[int, Tuple[int, ...]]:
        """Mapping node -> sorted contact tuple, for the whole population."""
        return {node: self.neighbors(node) for node in range(self._n)}

    def isolated_nodes(self) -> List[int]:
        """Nodes with an empty contact list."""
        return [node for node in range(self._n) if not self._adjacency[node]]

    def copy(self) -> "ContactGraph":
        """Deep copy."""
        clone = ContactGraph(self._n)
        for u in range(self._n):
            clone._adjacency[u] = set(self._adjacency[u])
        clone._num_edges = self._num_edges
        return clone

    def is_reciprocal(self) -> bool:
        """Check the reciprocity invariant (always true by construction)."""
        return all(
            u in self._adjacency[v]
            for u in range(self._n)
            for v in self._adjacency[u]
        )

    def subgraph(self, nodes: Sequence[int]) -> "ContactGraph":
        """Induced subgraph, with nodes relabelled to ``0..len(nodes)-1``."""
        index = {node: i for i, node in enumerate(nodes)}
        sub = ContactGraph(len(nodes))
        for node in nodes:
            self._check_node(node)
            for neighbor in self._adjacency[node]:
                if neighbor in index:
                    u, v = index[node], index[neighbor]
                    if u < v:
                        sub.add_edge(u, v)
        return sub

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range [0, {self._n})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContactGraph(n={self._n}, edges={self._num_edges})"


__all__ = ["ContactGraph"]
