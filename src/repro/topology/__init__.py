"""Contact-list network topologies (NGCE substitute).

Provides the reciprocal contact graphs over which MMS viruses spread:
power-law generators calibrated to the paper's setup (1000 phones, mean
contact-list size 80), comparison topologies, a per-process memo that
builds each replication's graph once, an NGCE-like contact-list file
format, and validation metrics.
"""

from .csr import CSRAdjacency, csr_powerlaw
from .contact_lists import (
    ContactListFormatError,
    dumps_contact_lists,
    loads_contact_lists,
    read_contact_lists,
    write_contact_lists,
)
from .generators import (
    attach_isolated_nodes,
    barabasi_albert,
    chung_lu_powerlaw,
    complete_graph,
    contact_network,
    erdos_renyi,
    ring_lattice,
    watts_strogatz,
)
from .memo import clear_graph_memo, shared_contact_network
from .metrics import (
    DegreeStats,
    degree_assortativity,
    average_clustering,
    average_path_length,
    clustering_coefficient,
    connected_components,
    degree_histogram,
    largest_component_fraction,
    powerlaw_exponent_mle,
    shortest_path_lengths,
)

__all__ = [
    "CSRAdjacency",
    "csr_powerlaw",
    "contact_network",
    "shared_contact_network",
    "clear_graph_memo",
    "chung_lu_powerlaw",
    "barabasi_albert",
    "erdos_renyi",
    "watts_strogatz",
    "ring_lattice",
    "complete_graph",
    "attach_isolated_nodes",
    "write_contact_lists",
    "read_contact_lists",
    "dumps_contact_lists",
    "loads_contact_lists",
    "ContactListFormatError",
    "DegreeStats",
    "degree_assortativity",
    "degree_histogram",
    "connected_components",
    "largest_component_fraction",
    "clustering_coefficient",
    "average_clustering",
    "average_path_length",
    "shortest_path_lengths",
    "powerlaw_exponent_mle",
]
