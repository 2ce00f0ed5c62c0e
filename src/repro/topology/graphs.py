"""Connectivity-graph construction.

Converts a geometric :class:`~repro.topology.deploy.Deployment` into the
unit-disk graph the protocols run on (the *distributed* tree
construction lives in :mod:`repro.aggregation.tree` and runs on the
simulator).
"""

from __future__ import annotations

from typing import Dict, List, Set

import networkx as nx

from repro.topology.deploy import Deployment
from repro.topology.spatial import (
    adjacency_from_pairs,
    neighbor_pairs,
    pair_lengths,
)


def neighbors_within_range(deployment: Deployment) -> Dict[int, List[int]]:
    """Adjacency lists of the unit-disk graph, via the grid-bucketed
    spatial index (:mod:`repro.topology.spatial`).

    Returns a dict mapping each node id to the sorted list of node ids
    within radio range (excluding itself).
    """
    pairs = neighbor_pairs(deployment.positions, deployment.radio_range)
    return adjacency_from_pairs(pairs, deployment.num_nodes)


def connectivity_graph(deployment: Deployment) -> nx.Graph:
    """The unit-disk graph as a :class:`networkx.Graph`.

    Nodes carry a ``pos`` attribute; edges carry their Euclidean
    ``length``. Edge discovery and the length column are both computed
    as whole-array operations — no per-pair distance calls.
    """
    graph = nx.Graph()
    for node in range(deployment.num_nodes):
        graph.add_node(node, pos=deployment.position(node))
    pairs = neighbor_pairs(deployment.positions, deployment.radio_range)
    lengths = pair_lengths(deployment.positions, pairs)
    graph.add_edges_from(
        (int(a), int(b), {"length": float(length)})
        for (a, b), length in zip(pairs, lengths)
    )
    return graph


def largest_component(graph: nx.Graph) -> Set[int]:
    """Node set of the largest connected component."""
    if graph.number_of_nodes() == 0:
        return set()
    return set(max(nx.connected_components(graph), key=len))
