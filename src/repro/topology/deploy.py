"""Sensor deployment generators.

A :class:`Deployment` is the geometric ground truth of a simulation run:
node positions, field dimensions, radio range, and the designated base
station. Node 0 is always the base station; by convention it sits at the
field's corner (as in the paper family's ns-2 scripts) unless the
generator places it elsewhere explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt
from typing import Optional, Tuple

import numpy as np

from repro.errors import DeploymentError

#: Default field edge (meters), matching the paper family's setup.
DEFAULT_FIELD_SIZE = 400.0
#: Default radio transmission range (meters).
DEFAULT_RANGE = 50.0
#: Node id reserved for the base station.
BASE_STATION_ID = 0


@dataclass(frozen=True)
class Deployment:
    """Immutable geometric description of a deployed sensor network.

    Attributes
    ----------
    positions:
        ``(N, 2)`` float array of node coordinates in meters. Row ``i`` is
        node ``i``; row 0 is the base station.
    field_size:
        Edge length of the square deployment field, meters.
    radio_range:
        Unit-disk communication radius, meters.
    kind:
        Generator label (``"uniform"``, ``"grid"``...), for reports.
    """

    positions: np.ndarray
    field_size: float = DEFAULT_FIELD_SIZE
    radio_range: float = DEFAULT_RANGE
    kind: str = "custom"
    _frozen: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise DeploymentError(
                f"positions must be an (N, 2) array, got shape {positions.shape}"
            )
        if positions.shape[0] < 2:
            raise DeploymentError("a deployment needs at least 2 nodes (BS + sensor)")
        if self.field_size <= 0:
            raise DeploymentError(f"field_size must be positive, got {self.field_size}")
        if self.radio_range <= 0:
            raise DeploymentError(f"radio_range must be positive, got {self.radio_range}")
        object.__setattr__(self, "positions", positions)
        self.positions.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        """Total node count, base station included."""
        return int(self.positions.shape[0])

    @property
    def base_station(self) -> int:
        """Node id of the base station (always 0)."""
        return BASE_STATION_ID

    def position(self, node_id: int) -> Tuple[float, float]:
        """Coordinates of ``node_id`` as a tuple."""
        x, y = self.positions[node_id]
        return (float(x), float(y))

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between nodes ``a`` and ``b`` in meters."""
        diff = self.positions[a] - self.positions[b]
        return float(np.hypot(diff[0], diff[1]))

    def expected_degree(self) -> float:
        """Analytic mean degree ``N * pi * r^2 / A`` ignoring edge effects."""
        area = self.field_size * self.field_size
        return (self.num_nodes - 1) * np.pi * self.radio_range**2 / area


def uniform_deployment(
    num_nodes: int,
    *,
    field_size: float = DEFAULT_FIELD_SIZE,
    radio_range: float = DEFAULT_RANGE,
    rng: Optional[np.random.Generator] = None,
    bs_position: Optional[Tuple[float, float]] = None,
) -> Deployment:
    """Drop ``num_nodes`` sensors uniformly at random over the square field.

    The base station (node 0) is pinned at ``bs_position`` (default: the
    field center, which maximizes tree balance) and the remaining
    ``num_nodes - 1`` sensors are i.i.d. uniform.
    """
    if num_nodes < 2:
        raise DeploymentError("uniform_deployment needs at least 2 nodes")
    rng = rng if rng is not None else np.random.default_rng()
    positions = rng.uniform(0.0, field_size, size=(num_nodes, 2))
    if bs_position is None:
        bs_position = (field_size / 2.0, field_size / 2.0)
    positions[0] = bs_position
    return Deployment(
        positions=positions,
        field_size=field_size,
        radio_range=radio_range,
        kind="uniform",
    )


def grid_deployment(
    num_nodes: int,
    *,
    field_size: float = DEFAULT_FIELD_SIZE,
    radio_range: float = DEFAULT_RANGE,
    jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Deployment:
    """Lay sensors on a near-square grid, optionally jittered.

    ``jitter`` is the standard deviation (meters) of Gaussian perturbation
    applied to each grid point; positions are clipped to the field. The
    base station replaces the grid point nearest the field center.
    """
    if num_nodes < 2:
        raise DeploymentError("grid_deployment needs at least 2 nodes")
    if jitter < 0:
        raise DeploymentError(f"jitter must be >= 0, got {jitter}")
    side = int(ceil(sqrt(num_nodes)))
    spacing = field_size / side
    coords = []
    for row in range(side):
        for col in range(side):
            if len(coords) == num_nodes:
                break
            coords.append(((col + 0.5) * spacing, (row + 0.5) * spacing))
    positions = np.asarray(coords, dtype=float)
    if jitter > 0:
        rng = rng if rng is not None else np.random.default_rng()
        positions = positions + rng.normal(0.0, jitter, size=positions.shape)
        positions = np.clip(positions, 0.0, field_size)
    center = np.array([field_size / 2.0, field_size / 2.0])
    nearest = int(np.argmin(np.linalg.norm(positions - center, axis=1)))
    positions[[0, nearest]] = positions[[nearest, 0]]
    return Deployment(
        positions=positions,
        field_size=field_size,
        radio_range=radio_range,
        kind="grid",
    )


def poisson_deployment(
    intensity: float,
    *,
    field_size: float = DEFAULT_FIELD_SIZE,
    radio_range: float = DEFAULT_RANGE,
    rng: Optional[np.random.Generator] = None,
) -> Deployment:
    """Sample a homogeneous Poisson point process of the given intensity
    (nodes per square meter); the base station is added at the center.

    The realized node count is random: ``Poisson(intensity * area) + 1``.
    """
    if intensity <= 0:
        raise DeploymentError(f"intensity must be positive, got {intensity}")
    rng = rng if rng is not None else np.random.default_rng()
    area = field_size * field_size
    count = int(rng.poisson(intensity * area))
    count = max(count, 1)
    sensors = rng.uniform(0.0, field_size, size=(count, 2))
    bs = np.array([[field_size / 2.0, field_size / 2.0]])
    positions = np.vstack([bs, sensors])
    return Deployment(
        positions=positions,
        field_size=field_size,
        radio_range=radio_range,
        kind="poisson",
    )


def hotspot_deployment(
    num_nodes: int,
    *,
    num_hotspots: int = 3,
    hotspot_sigma: float = 40.0,
    background_fraction: float = 0.3,
    field_size: float = DEFAULT_FIELD_SIZE,
    radio_range: float = DEFAULT_RANGE,
    rng: Optional[np.random.Generator] = None,
) -> Deployment:
    """Clustered deployment: a fraction of sensors uniform, the rest in
    Gaussian hotspots (stress case for cluster-formation coverage).

    Parameters
    ----------
    num_hotspots:
        Number of Gaussian clusters drawn uniformly over the field.
    hotspot_sigma:
        Standard deviation of each hotspot, meters.
    background_fraction:
        Fraction of sensors deployed uniformly rather than in hotspots.
    """
    if num_nodes < 2:
        raise DeploymentError("hotspot_deployment needs at least 2 nodes")
    if num_hotspots < 1:
        raise DeploymentError(f"num_hotspots must be >= 1, got {num_hotspots}")
    if not 0.0 <= background_fraction <= 1.0:
        raise DeploymentError(
            f"background_fraction must be in [0, 1], got {background_fraction}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    sensors = num_nodes - 1
    n_background = int(round(sensors * background_fraction))
    n_hot = sensors - n_background
    centers = rng.uniform(0.2 * field_size, 0.8 * field_size, size=(num_hotspots, 2))
    assignments = rng.integers(0, num_hotspots, size=n_hot)
    hot = centers[assignments] + rng.normal(0.0, hotspot_sigma, size=(n_hot, 2))
    background = rng.uniform(0.0, field_size, size=(n_background, 2))
    bs = np.array([[field_size / 2.0, field_size / 2.0]])
    positions = np.vstack([bs, hot, background])
    positions = np.clip(positions, 0.0, field_size)
    return Deployment(
        positions=positions,
        field_size=field_size,
        radio_range=radio_range,
        kind="hotspot",
    )
