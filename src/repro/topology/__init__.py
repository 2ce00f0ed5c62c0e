"""Synthetic WSN topology generation and analysis.

The paper family evaluates on nodes uniformly deployed over a 400 m ×
400 m field with a 50 m radio range. This subpackage generates such
deployments (plus grids, Poisson fields, and hotspot mixtures), derives
the unit-disk connectivity graph, and computes the density statistics the
evaluation tables report (average degree vs node count).
"""

from repro.topology.deploy import (
    Deployment,
    grid_deployment,
    hotspot_deployment,
    poisson_deployment,
    uniform_deployment,
)
from repro.topology.graphs import (
    bfs_tree_parents,
    connectivity_graph,
    is_connected_to,
    largest_component,
    neighbors_within_range,
)
from repro.topology.spatial import (
    adjacency_from_pairs,
    compact_cell_ids,
    neighbor_pairs,
    pair_lengths,
)
from repro.topology.stats import DensityStats, degree_sequence

__all__ = [
    "adjacency_from_pairs",
    "compact_cell_ids",
    "neighbor_pairs",
    "pair_lengths",
    "Deployment",
    "uniform_deployment",
    "grid_deployment",
    "poisson_deployment",
    "hotspot_deployment",
    "connectivity_graph",
    "neighbors_within_range",
    "bfs_tree_parents",
    "largest_component",
    "is_connected_to",
    "DensityStats",
    "degree_sequence",
]
