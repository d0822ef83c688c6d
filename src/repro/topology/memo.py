"""Per-process memo of finished contact graphs.

Every response mechanism in a figure, and every latency a frontier
probes, runs on the same replicated contact networks: the graph of
replication ``k`` depends only on the network parameters and the
replication's topology stream, not on the virus or the response.
:func:`shared_contact_network` builds each such graph once per process
and hands every later model the same read-only CSR arrays.

The key is every input of :func:`~repro.topology.generators.contact_network`
the core model passes (population, mean contact-list size, topology
model, power-law exponent) plus the identity of the topology stream's
``SeedSequence`` (its ``entropy`` and ``spawn_key``), which names the
stream without drawing from it.  Entries are the builder's own compact
``int32`` CSR, stored as built, and the memo holds at most
:data:`GRAPH_MEMO_BYTES` of them, evicting the least recently used.
Nothing is built at import, and a forked worker inherits whatever its
parent had built before the fork.  Like the models it feeds, the memo
is used from one thread per process (a pool worker, or the daemon's
executor thread).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Tuple

import numpy as np

from .csr import CSRAdjacency
from .generators import contact_network

#: Byte budget of the memo's arrays (``indptr`` + ``indices``).  A
#: paper-size graph (N=1000, mean contact list 80) takes ~0.3 MiB.
GRAPH_MEMO_BYTES = 64 * 2**20

_MEMO: "OrderedDict[Hashable, CSRAdjacency]" = OrderedDict()


def _nbytes(adjacency: CSRAdjacency) -> int:
    return adjacency.indptr.nbytes + adjacency.indices.nbytes


def _stream_identity(rng: np.random.Generator) -> Tuple[object, Tuple[int, ...]]:
    """``(entropy, spawn_key)`` of an unused generator's seed sequence.

    The key says nothing about how far a generator has advanced, so only
    a fresh one may be keyed by it.
    """
    bit_generator = rng.bit_generator
    seed_seq = bit_generator.seed_seq
    if bit_generator.state != type(bit_generator)(seed_seq).state:
        raise ValueError(
            "shared_contact_network needs a fresh topology generator; "
            "this one has already been drawn from"
        )
    return seed_seq.entropy, tuple(seed_seq.spawn_key)


def shared_contact_network(
    population: int,
    mean_contact_list_size: float,
    rng: np.random.Generator,
    model: str,
    exponent: float,
) -> CSRAdjacency:
    """The contact network ``contact_network`` would build, built once.

    ``rng`` must be the replication's fresh topology stream.  A miss
    builds the graph from it; a hit leaves it untouched, which changes no
    other stream.  The returned arrays are not writeable.
    """
    key = (
        population,
        mean_contact_list_size,
        model,
        exponent,
        *_stream_identity(rng),
    )
    adjacency = _MEMO.get(key)
    if adjacency is not None:
        _MEMO.move_to_end(key)
        return adjacency
    adjacency = contact_network(
        population, mean_contact_list_size, rng, model=model, exponent=exponent
    )
    adjacency.indptr.flags.writeable = False
    adjacency.indices.flags.writeable = False
    _MEMO[key] = adjacency
    total = sum(map(_nbytes, _MEMO.values()))
    while total > GRAPH_MEMO_BYTES:
        _, evicted = _MEMO.popitem(last=False)
        total -= _nbytes(evicted)
    return adjacency


def clear_graph_memo() -> None:
    """Forget every memoized graph (tests; a fresh process starts empty)."""
    _MEMO.clear()


__all__ = ["GRAPH_MEMO_BYTES", "clear_graph_memo", "shared_contact_network"]
