"""Density and degree statistics for deployments.

The per-deployment numbers behind the paper family's "network size vs
average degree" table (Table I in the iPDA/iCPDA evaluations): for a
400 m × 400 m field with a 50 m range, N in {200..600} yields average
degrees of roughly 8.8 to 28.4. Experiment T1
(:func:`repro.experiments.density.density_spec`) builds the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.deploy import Deployment


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


def density_stats(deployment: Deployment) -> DensityStats:
    """Compute :class:`DensityStats` for one deployment, from its link
    graph (:attr:`Deployment.links`)."""
    links = deployment.links
    degrees = links.degrees()
    return DensityStats(
        num_nodes=deployment.num_nodes,
        mean_degree=float(np.mean(degrees)),
        min_degree=int(degrees.min()),
        max_degree=int(degrees.max()),
        isolated_nodes=int(np.count_nonzero(degrees == 0)),
        largest_component_fraction=(
            links.largest_component_size() / deployment.num_nodes
        ),
    )
