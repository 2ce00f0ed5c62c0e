"""Shared experiment machinery: workloads, protocol builders, drivers.

Defaults mirror the paper family's setup: a 400 m x 400 m field, 50 m
radio range, network sizes 200..600, readings that look like the
advanced-metering workload from the paper's motivation (positive,
bounded, diurnal-ish variation).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.aggregation.functions import SumAggregate
from repro.aggregation.tag import TagProtocol, TagResult
from repro.aggregation.tree import build_aggregation_tree
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import RoundResult
from repro.errors import ReproError
from repro.net.transport import Transport, create_transport
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment

#: Network sizes the paper family sweeps.
DEFAULT_SIZES: Tuple[int, ...] = (200, 300, 400, 500, 600)


def make_readings(
    num_nodes: int,
    kind: str = "metering",
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, float]:
    """Sensor readings for nodes 1..N-1 (node 0 is the base station).

    Kinds
    -----
    ``"metering"``
        Household power draw in watts: log-normal around ~500 W, the
        advanced-metering workload from the paper's motivation.
    ``"uniform"``
        Uniform in [10, 30) — generic environmental sensing.
    ``"gaussian"``
        Normal(20, 3) clipped to stay positive.
    ``"constant"``
        All ones — turns SUM into an exact COUNT for loss accounting.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    sensors = range(1, num_nodes)
    if kind == "metering":
        return {i: float(rng.lognormal(mean=6.2, sigma=0.5)) for i in sensors}
    if kind == "uniform":
        return {i: float(rng.uniform(10.0, 30.0)) for i in sensors}
    if kind == "gaussian":
        return {i: float(max(0.1, rng.normal(20.0, 3.0))) for i in sensors}
    if kind == "constant":
        return {i: 1.0 for i in sensors}
    raise ReproError(f"unknown workload kind {kind!r}")


def build_icpda(
    num_nodes: int,
    config: Optional[IcpdaConfig] = None,
    seed: int = 0,
    transport: str = "des",
) -> IcpdaProtocol:
    """Deploy a network and return a set-up protocol instance."""
    deployment = uniform_deployment(num_nodes, rng=np.random.default_rng(seed))
    protocol = IcpdaProtocol(
        deployment,
        config if config is not None else IcpdaConfig(),
        seed=seed,
        transport=transport,
    )
    protocol.setup()
    return protocol


def run_icpda_round(
    num_nodes: int,
    config: Optional[IcpdaConfig] = None,
    seed: int = 0,
    workload: str = "metering",
    transport: str = "des",
) -> Tuple[RoundResult, IcpdaProtocol]:
    """One full clean iCPDA round on a fresh deployment."""
    protocol = build_icpda(num_nodes, config, seed, transport=transport)
    readings = make_readings(
        num_nodes, kind=workload, rng=np.random.default_rng(seed + 10_000)
    )
    result = protocol.run_round(readings)
    return result, protocol


def run_tag_round_on(
    num_nodes: int,
    seed: int = 0,
    workload: str = "metering",
    transport: str = "des",
) -> Tuple[TagResult, Transport]:
    """One TAG SUM epoch on a fresh deployment (the baseline).

    Uses the same deployment generator and workload as the iCPDA driver
    so the two are directly comparable at equal seeds.
    """
    rng = np.random.default_rng(seed)
    deployment = uniform_deployment(num_nodes, rng=rng)
    sim = Simulator(seed=seed)
    stack = create_transport(transport, sim, deployment)
    tree = build_aggregation_tree(stack)
    readings = make_readings(
        num_nodes, kind=workload, rng=np.random.default_rng(seed + 10_000)
    )
    protocol = TagProtocol(stack, tree, SumAggregate())
    result = protocol.run(readings)
    return result, stack


def fixed_cluster_config(
    m: int, base: Optional[IcpdaConfig] = None, **overrides
) -> IcpdaConfig:
    """``base`` (default: a default config) with every active cluster
    pinned to exactly ``m`` members (``k_min = k_max = m``) — used when
    an experiment sweeps cluster size as an independent variable.

    The election probability adapts to the target size (``p_c = 1/m``),
    the paper family's own adaptive-parameter guidance: the expected head
    count then matches the number of ``m``-clusters the network needs.
    """
    if m < 2:
        raise ReproError(f"cluster size must be >= 2, got {m}")
    overrides.setdefault("p_c", min(0.9, 1.0 / m))
    base = base if base is not None else IcpdaConfig()
    return replace(base, k_min=m, k_max=m, **overrides)
