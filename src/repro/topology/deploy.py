"""Sensor deployment generators.

A :class:`Deployment` is the geometric ground truth of a simulation run:
node positions, field dimensions, radio range, and the designated base
station. Node 0 is always the base station; by convention it sits at the
field's corner (as in the paper family's ns-2 scripts) unless the
generator places it elsewhere explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from repro.errors import DeploymentError
from repro.topology.graphs import LinkGraph

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

    @cached_property
    def links(self) -> LinkGraph:
        """The unit-disk link graph, built on first use and shared by
        every transport, medium and statistic on this deployment (the
        geometry is frozen, so it never goes stale)."""
        return LinkGraph.build(self.positions, self.radio_range)

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
) -> Deployment:
    """Drop ``num_nodes`` sensors uniformly at random over the square field.

    The base station (node 0) is pinned at the field center, which
    maximizes tree balance, and the remaining ``num_nodes - 1`` sensors
    are i.i.d. uniform.
    """
    if num_nodes < 2:
        raise DeploymentError("uniform_deployment needs at least 2 nodes")
    rng = rng if rng is not None else np.random.default_rng()
    positions = rng.uniform(0.0, field_size, size=(num_nodes, 2))
    positions[0] = (field_size / 2.0, field_size / 2.0)
    return Deployment(
        positions=positions,
        field_size=field_size,
        radio_range=radio_range,
        kind="uniform",
    )
