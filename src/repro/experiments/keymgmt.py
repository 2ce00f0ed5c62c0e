"""Ablation A4: key-management scheme vs participation and privacy.

iCPDA is key-scheme agnostic ("can be built on top of any key
management scheme"); this experiment quantifies what that costs.
Under Eschenauer–Gligor random predistribution:

* two cluster members can exchange shares only if their rings overlap —
  clusters containing an unsecurable pair abort, so participation falls
  as the ring shrinks (tracking the analytic connect probability);
* a captured node's ring decrypts every link using one of its keys —
  the third-party overlap leak the paper's p_x abstraction models.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.attacks.eavesdrop import EavesdropAnalysis
from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.crypto.adversary_keys import LinkBreakModel
from repro.crypto.keys import KeyRing
from repro.crypto.linksec import LinkSecurity
from repro.crypto.predistribution import RandomPredistributionScheme
from repro.experiments.common import make_readings
from repro.topology.deploy import uniform_deployment


def provision_eg_linksec(
    num_nodes: int,
    pool_size: int,
    ring_size: int,
    rng: np.random.Generator,
) -> LinkSecurity:
    """Deal EG rings to every node and wrap them in a LinkSecurity."""
    scheme = RandomPredistributionScheme(pool_size, ring_size, rng=rng)
    scheme.provision_all(list(range(num_nodes)))
    return LinkSecurity(scheme)


def eg_cell(params: dict, seed: int, context: dict) -> dict:
    """One ring size: a full round under EG keys + the capture attack."""
    ring_size = params["ring_size"]
    num_nodes = context["num_nodes"]
    cfg = context["config"]
    rng = np.random.default_rng(seed)
    deployment = uniform_deployment(num_nodes, rng=rng)
    linksec = provision_eg_linksec(
        num_nodes, context["pool_size"], ring_size, np.random.default_rng(seed + 1)
    )
    protocol = IcpdaProtocol(
        deployment,
        cfg,
        seed=seed,
        linksec=linksec,
        transport=context.get("transport", "des"),
    )
    protocol.setup()
    readings = make_readings(num_nodes, rng=np.random.default_rng(seed + 2))
    result = protocol.run_round(readings)
    exchange = protocol.last_exchange
    assert exchange is not None
    key_aborts = sum(
        1
        for s in exchange.states.values()
        if s.aborted_reason == "no_shared_key"
    )

    # Capture one node's ring and measure the third-party leak.
    scheme = linksec.scheme
    assert isinstance(scheme, RandomPredistributionScheme)
    captured = num_nodes // 2
    adversary_ring = KeyRing(scheme.ring(captured).as_frozenset())
    links = {
        tuple(sorted((t.origin, t.recipient)))
        for t in exchange.share_log
    }
    hop_links = {
        hop for t in exchange.share_log for hop in t.links
    }
    model = LinkBreakModel.from_eg_overlap(
        scheme,
        adversary_ring,
        {tuple(sorted(h)) for h in hop_links} | links,
    )
    stats, _ = EavesdropAnalysis(
        exchange, model, colluders={captured}
    ).run()

    return {
        "ring_size": ring_size,
        "connect_prob": round(scheme.connect_probability(), 4),
        "participation": round(result.participation, 4),
        "key_aborts": key_aborts,
        "verdict": result.verdict.value,
        "captured_ring_disclosure": round(stats.probability, 4),
    }


def eg_spec(
    ring_sizes: Sequence[int] = (8, 15, 25, 40),
    pool_size: int = 200,
    num_nodes: int = 250,
    config: Optional[IcpdaConfig] = None,
    base_seed: int = 0,
):
    """Rows per ring size: analytic ring-overlap probability,
    participation under EG keys, clusters aborted for missing keys, and
    the empirical disclosure a single captured ring achieves.

    Cells: one full EG round per ring size.
    """
    from repro.experiments.engine import CellSpec, ExperimentSpec

    cfg = config if config is not None else IcpdaConfig()
    cells = tuple(
        CellSpec({"ring_size": ring_size}, base_seed + ring_size)
        for ring_size in ring_sizes
    )
    return ExperimentSpec(
        "A4",
        eg_cell,
        cells,
        lambda outcomes: [o.value for o in outcomes],
        context={"num_nodes": num_nodes, "pool_size": pool_size, "config": cfg},
    )
