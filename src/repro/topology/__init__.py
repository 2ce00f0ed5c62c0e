"""Synthetic WSN topology generation and analysis.

The paper family evaluates on nodes uniformly deployed over a 400 m ×
400 m field with a 50 m radio range. This subpackage generates such
deployments, derives the unit-disk link graph (one CSR table per
deployment, :attr:`Deployment.links`), and computes the
density statistics the evaluation tables report (average degree vs node
count).
"""

from repro.topology.deploy import Deployment, uniform_deployment
from repro.topology.graphs import LinkGraph
from repro.topology.spatial import (
    compact_cell_ids,
    neighbor_pairs,
    pair_lengths,
)
from repro.topology.stats import DensityStats

__all__ = [
    "compact_cell_ids",
    "neighbor_pairs",
    "pair_lengths",
    "Deployment",
    "uniform_deployment",
    "LinkGraph",
    "DensityStats",
]
