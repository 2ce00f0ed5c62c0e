"""Density and degree statistics for deployments.

The per-deployment numbers behind the paper family's "network size vs
average degree" table (Table I in the iPDA/iCPDA evaluations): for a
400 m × 400 m field with a 50 m range, N in {200..600} yields average
degrees of roughly 8.8 to 28.4. Experiment T1
(:func:`repro.experiments.density.density_spec`) builds the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.topology.deploy import Deployment
from repro.topology.graphs import connectivity_graph, largest_component


@dataclass(frozen=True)
class DensityStats:
    """Degree/connectivity summary of one deployment.

    Attributes
    ----------
    num_nodes:
        Total nodes (base station included).
    mean_degree / min_degree / max_degree:
        Degree statistics of the unit-disk graph.
    isolated_nodes:
        Nodes with no neighbor at all.
    largest_component_fraction:
        |largest component| / N — 1.0 when connected.
    """

    num_nodes: int
    mean_degree: float
    min_degree: int
    max_degree: int
    isolated_nodes: int
    largest_component_fraction: float

    def as_row(self) -> dict:
        """Flatten to a plain dict for table rendering."""
        return {
            "nodes": self.num_nodes,
            "mean_degree": round(self.mean_degree, 2),
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "isolated": self.isolated_nodes,
            "lcc_fraction": round(self.largest_component_fraction, 4),
        }


def degree_sequence(deployment: Deployment) -> List[int]:
    """Sorted degree sequence of the deployment's unit-disk graph."""
    graph = connectivity_graph(deployment)
    return sorted(d for _, d in graph.degree())


def density_stats(deployment: Deployment) -> DensityStats:
    """Compute :class:`DensityStats` for one deployment."""
    graph = connectivity_graph(deployment)
    degrees = [d for _, d in graph.degree()]
    lcc = largest_component(graph)
    return DensityStats(
        num_nodes=deployment.num_nodes,
        mean_degree=float(np.mean(degrees)) if degrees else 0.0,
        min_degree=int(min(degrees)) if degrees else 0,
        max_degree=int(max(degrees)) if degrees else 0,
        isolated_nodes=sum(1 for d in degrees if d == 0),
        largest_component_fraction=len(lcc) / deployment.num_nodes,
    )

