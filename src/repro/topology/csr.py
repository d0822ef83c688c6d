"""The contact graph: CSR (compressed sparse row) arrays and the power-law builder.

The paper connects phones through *reciprocal* contact lists ("if phone 22
is in the contact list of phone 83, then phone 83 is in the contact list of
phone 22"), i.e. an undirected graph over integer phone ids.  Every
engine, generator and tool holds that graph as one
:class:`CSRAdjacency`: two flat integer arrays, so a paper-density
network (mean contact-list size 80) costs 4 bytes per contact instead of
a Python object each, and populations of millions fit in memory.

``indptr``
    ``int64`` array of length ``n + 1``; the neighbours of phone ``i``
    live at ``indices[indptr[i]:indptr[i + 1]]``.
``indices``
    ``int32`` array of neighbour ids, sorted within each row.

It also holds the one power-law configuration-model stage both
generators share: :func:`configuration_model` draws the degree sequence,
shuffles the stubs, pairs them and dedupes through
:meth:`CSRAdjacency.from_edges`.  :func:`csr_powerlaw` (the xl engine)
and :func:`~repro.topology.generators.contact_network` (the core engine)
differ only in how they repair isolated phones afterwards, so from one
seed they wire the same edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class CSRAdjacency:
    """Reciprocal contact network in compressed sparse row form."""

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if len(self.indptr) < 1:
            raise ValueError("indptr must have at least one entry")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"len(indices)={len(self.indices)}"
            )

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in ``indices``)."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Contact-list size per phone (``int64``, length ``num_nodes``)."""
        return np.diff(self.indptr)

    def mean_degree(self) -> float:
        if self.num_nodes == 0:
            return 0.0
        return len(self.indices) / self.num_nodes

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node`` (view into ``indices``)."""
        self._check_node(node)
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if phones ``u`` and ``v`` are mutual contacts."""
        row = self.neighbors(u)
        self._check_node(v)
        position = int(np.searchsorted(row, v))
        return position < len(row) and int(row[position]) == v

    def neighbor_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Every row as a sorted tuple of Python ints.

        Slicing one flat tuple avoids a per-row array conversion.  Loops
        that name, print or hash contacts read these rather than the
        arrays, so no NumPy scalar reaches a name or a digest.
        """
        flat = tuple(self.indices.tolist())
        bounds = self.indptr.tolist()
        return tuple(map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:])))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Undirected edges as ``(u, v)`` with ``u < v``, sorted."""
        for u, row in enumerate(self.neighbor_lists()):
            for v in row:
                if u < v:
                    yield (u, v)

    @classmethod
    def from_edges(cls, num_nodes: int, u: np.ndarray, v: np.ndarray) -> "CSRAdjacency":
        """Build from undirected edge endpoint arrays.

        Self-loops are dropped and duplicate edges collapse: a phone is
        never in its own contact list and a contact appears once.  An
        endpoint outside ``[0, num_nodes)`` raises :class:`ValueError`.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        keep = u != v
        u, v = u[keep], v[keep]
        # Canonicalise at native width (the stub arrays arrive as int32;
        # widening before min/max doubles the memory traffic for nothing)
        # and only widen for the 64-bit (lo < hi) keys, deduped by sort +
        # adjacent-diff (an order of magnitude faster than np.unique's
        # hash path on multi-million-edge arrays).
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if lo.size and (lo.min() < 0 or hi.max() >= num_nodes):
            raise ValueError(
                f"edge endpoints must lie in [0, {num_nodes}), got "
                f"[{int(lo.min())}, {int(hi.max())}]"
            )
        key = lo.astype(np.int64, copy=False) * num_nodes + hi
        key.sort()
        if key.size:
            first = np.concatenate(([True], key[1:] != key[:-1]))
            key = key[first]
        lo = key // num_nodes
        hi = key % num_nodes
        # Symmetrise into (source, neighbour) order so each row comes out
        # sorted.  The forward run (lo -> hi) is already key-sorted, so
        # only the reverse run needs an argsort — half the elements of
        # sorting the concatenation — and the two sorted runs merge via
        # searchsorted rank arithmetic.
        # Keys never collide across runs: a forward key has lo < hi, a
        # reverse key hi > lo, so equality would force lo == hi.
        reverse_key = hi * num_nodes + lo
        reverse_order = np.argsort(reverse_key)
        reverse_sorted = reverse_key[reverse_order]
        edge_count = key.size
        rank = np.arange(edge_count, dtype=np.int64)
        indices = np.empty(2 * edge_count, dtype=np.int32)
        indices[np.searchsorted(reverse_sorted, key) + rank] = hi.astype(np.int32)
        indices[np.searchsorted(key, reverse_sorted) + rank] = lo[
            reverse_order
        ].astype(np.int32)
        counts = np.bincount(lo, minlength=num_nodes) + np.bincount(
            hi, minlength=num_nodes
        )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=indices)


def _from_pairs(num_nodes: int, pairs: Sequence[Tuple[int, int]]) -> CSRAdjacency:
    """:meth:`CSRAdjacency.from_edges` over a list of ``(u, v)`` pairs."""
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return CSRAdjacency.from_edges(num_nodes, edges[:, 0], edges[:, 1])


def _truncated_powerlaw_pmf(exponent: float, k_min: int, k_max: int) -> np.ndarray:
    """PMF of p(k) ∝ k^-exponent on [k_min, k_max]."""
    ks = np.arange(k_min, k_max + 1, dtype=float)
    weights = ks**-exponent
    return weights / weights.sum()


def _powerlaw_mean(exponent: float, k_min: int, k_max: int) -> float:
    """Mean of the truncated power-law degree distribution."""
    ks = np.arange(k_min, k_max + 1, dtype=float)
    pmf = _truncated_powerlaw_pmf(exponent, k_min, k_max)
    return float((ks * pmf).sum())


def solve_powerlaw_k_min(
    mean_degree: float,
    exponent: float,
    k_max: int,
) -> int:
    """Smallest ``k_min`` whose truncated power law has mean >= ``mean_degree``.

    The mean of p(k) ∝ k^-exponent on [k_min, k_max] is increasing in
    ``k_min``, so a linear scan (cheap at these sizes) finds the
    calibration point.  Raises if even ``k_min = k_max`` cannot reach the
    target.
    """
    if mean_degree <= 0:
        raise ValueError(f"mean_degree must be > 0, got {mean_degree}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    for k_min in range(1, k_max + 1):
        if _powerlaw_mean(exponent, k_min, k_max) >= mean_degree:
            return k_min
    raise ValueError(
        f"mean degree {mean_degree} unreachable with exponent {exponent} "
        f"and k_max {k_max}"
    )


def configuration_model(
    num_nodes: int,
    mean_degree: float,
    exponent: float,
    rng: np.random.Generator,
    k_max: Optional[int] = None,
) -> CSRAdjacency:
    """Power-law configuration model before any isolated-phone repair.

    Draws a degree sequence from a truncated power law
    ``p(k) ∝ k^-exponent`` on ``[k_min, k_max]``, with ``k_min``
    calibrated so the drawn mean sits ~13% above ``mean_degree`` (stub
    matching collapses duplicate edges, mostly at hubs, which costs about
    that much realized degree at the paper's density).  The stubs are
    shuffled and paired consecutively; self-loops drop and duplicates
    collapse in :meth:`CSRAdjacency.from_edges`.  The draws are one
    ``rng.choice`` of degrees, one ``rng.integers`` parity fix when the
    stub count is odd, and one ``rng.shuffle``.

    This family matches what the paper needs from NGCE: contact lists whose
    *mean* is 80 but whose *median* is much smaller (address books are
    heavy-tailed — most users keep tens of contacts, a few keep hundreds),
    which is what gives contact-list viruses their multi-day spread while
    leaving random-dialing viruses fast.
    """
    if num_nodes < 2:
        return CSRAdjacency(
            indptr=np.zeros(max(num_nodes, 0) + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int32),
        )
    if k_max is None:
        # Hubs up to half the population by default, but always enough
        # headroom above the target mean for the calibration to succeed.
        k_max = max(2, num_nodes // 2, int(math.ceil(mean_degree * 2)))
    k_max = min(k_max, num_nodes - 1)
    target = min(mean_degree * 1.13, float(k_max))
    k_min = solve_powerlaw_k_min(target, exponent, k_max)
    pmf = _truncated_powerlaw_pmf(exponent, k_min, k_max)
    ks = np.arange(k_min, k_max + 1)
    degrees = rng.choice(ks, size=num_nodes, p=pmf)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(0, num_nodes))] += 1

    stubs = np.repeat(np.arange(num_nodes, dtype=np.int32), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    return CSRAdjacency.from_edges(
        num_nodes, stubs[: 2 * half : 2], stubs[1 : 2 * half : 2]
    )


def csr_powerlaw(
    num_nodes: int,
    mean_degree: float,
    exponent: float,
    rng: np.random.Generator,
    k_max: Optional[int] = None,
) -> CSRAdjacency:
    """Vectorised power-law configuration model straight to CSR.

    :func:`configuration_model` plus an isolated-node fixup spliced into
    the arrays, all without per-edge Python objects.  Practical up to
    populations of millions (N=1M at mean degree 80 peaks around ~1 GB
    transient).  The fixup draws its partners in one vectorised call, so
    when a graph has isolated phones its repair edges (and the RNG state
    after the build) differ from the core engine's
    :func:`~repro.topology.generators.attach_isolated_nodes`.
    """
    adjacency = configuration_model(num_nodes, mean_degree, exponent, rng, k_max)
    if num_nodes < 2:
        return adjacency
    isolated = np.nonzero(adjacency.degrees() == 0)[0]
    if isolated.size == 0:
        return adjacency
    # Mirror attach_isolated_nodes: one random distinct contact each.  The
    # handful of repair edges are spliced into the existing CSR arrays
    # (rebuilding from scratch would double the generation cost).
    partners = rng.integers(0, num_nodes - 1, size=isolated.size)
    partners = partners + (partners >= isolated)
    repair_lo = np.minimum(isolated, partners).astype(np.int64)
    repair_hi = np.maximum(isolated, partners).astype(np.int64)
    unique_keys = np.unique(repair_lo * num_nodes + repair_hi)
    repair_lo = unique_keys // num_nodes
    repair_hi = unique_keys % num_nodes
    return _insert_edges(adjacency, repair_lo, repair_hi)


def _insert_edges(
    adjacency: CSRAdjacency, u: np.ndarray, v: np.ndarray
) -> CSRAdjacency:
    """Splice a *small* batch of new undirected edges into a CSR graph.

    Edges must be distinct and not already exist.  Cost is one pass over
    ``indices`` plus O(len(u)) row searches — far cheaper than a full
    rebuild when the batch is a few repair edges.
    """
    indptr, indices = adjacency.indptr, adjacency.indices
    rows = np.concatenate((u, v))
    values = np.concatenate((v, u)).astype(np.int32)
    positions = np.empty(rows.size, dtype=np.int64)
    for i, (row, value) in enumerate(zip(rows, values)):
        start, stop = indptr[row], indptr[row + 1]
        positions[i] = start + np.searchsorted(indices[start:stop], value)
    # New contacts can share an insert position: two of one row with no
    # old contact between them, or those of consecutive empty rows.
    # Breaking ties by row, then value, keeps every row in place and sorted.
    order = np.lexsort((values, rows, positions))
    new_indices = np.insert(indices, positions[order], values[order])
    new_indptr = indptr.copy()
    new_indptr[1:] += np.cumsum(np.bincount(rows, minlength=adjacency.num_nodes))
    return CSRAdjacency(indptr=new_indptr, indices=new_indices)


__all__ = [
    "CSRAdjacency",
    "configuration_model",
    "csr_powerlaw",
    "solve_powerlaw_k_min",
]
