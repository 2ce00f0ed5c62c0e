"""Non-uniform deployments for tests.

The library deploys uniformly (:func:`repro.topology.deploy.uniform_deployment`,
the paper family's setup). Tests that stress the protocol or the spatial
index on other shapes build them here.
"""

from __future__ import annotations

from math import ceil, sqrt
from typing import Optional

import numpy as np

from repro.topology.deploy import DEFAULT_FIELD_SIZE, Deployment


def grid_deployment(
    num_nodes: int,
    *,
    field_size: float = DEFAULT_FIELD_SIZE,
    jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Deployment:
    """Sensors on a near-square grid, optionally jittered (Gaussian,
    clipped to the field); the base station takes the grid point nearest
    the field center."""
    side = int(ceil(sqrt(num_nodes)))
    spacing = field_size / side
    coords = [
        ((col + 0.5) * spacing, (row + 0.5) * spacing)
        for row in range(side)
        for col in range(side)
    ][:num_nodes]
    positions = np.asarray(coords, dtype=float)
    if jitter > 0:
        positions = positions + rng.normal(0.0, jitter, size=positions.shape)
        positions = np.clip(positions, 0.0, field_size)
    center = np.array([field_size / 2.0, field_size / 2.0])
    nearest = int(np.argmin(np.linalg.norm(positions - center, axis=1)))
    positions[[0, nearest]] = positions[[nearest, 0]]
    return Deployment(positions=positions, field_size=field_size, kind="grid")


def hotspot_deployment(
    num_nodes: int,
    *,
    field_size: float = DEFAULT_FIELD_SIZE,
    rng: np.random.Generator,
) -> Deployment:
    """30% of the sensors uniform, the rest in three Gaussian hotspots
    (sigma 40 m) drawn over the field's middle; base station at the
    center."""
    sensors = num_nodes - 1
    n_background = int(round(sensors * 0.3))
    n_hot = sensors - n_background
    centers = rng.uniform(0.2 * field_size, 0.8 * field_size, size=(3, 2))
    assignments = rng.integers(0, 3, size=n_hot)
    hot = centers[assignments] + rng.normal(0.0, 40.0, size=(n_hot, 2))
    background = rng.uniform(0.0, field_size, size=(n_background, 2))
    bs = np.array([[field_size / 2.0, field_size / 2.0]])
    positions = np.clip(np.vstack([bs, hot, background]), 0.0, field_size)
    return Deployment(positions=positions, field_size=field_size, kind="hotspot")
