"""repro — reproduction of *"A Cluster-Based Protocol to Enforce
Integrity and Preserve Privacy in Data Aggregation"* (ICDCS 2009).

The package implements the iCPDA protocol and every substrate it runs
on: a deterministic discrete-event simulator with a collision-prone
shared wireless medium, synthetic WSN topologies, a possession-model
crypto layer, the TAG aggregation baseline, attack harnesses, and the
analysis/experiment machinery that regenerates the evaluation suite
documented in DESIGN.md / EXPERIMENTS.md.

The public API below is re-exported lazily (PEP 562): importing a leaf
module such as :mod:`repro.core.clustering` must not drag in the event
kernel or a network backend. The transport-seam test suite
(``tests/net/test_transport_seam.py``) pins that property.

Quickstart
----------
>>> import numpy as np
>>> from repro import IcpdaConfig, IcpdaProtocol, uniform_deployment
>>> deployment = uniform_deployment(150, rng=np.random.default_rng(42))
>>> protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=42)
>>> tree = protocol.setup()
>>> readings = {i: 20.0 + (i % 7) for i in range(1, deployment.num_nodes)}
>>> result = protocol.run_round(readings)
>>> result.verdict.accepted, round(result.accuracy, 2)  # doctest: +SKIP
(True, 0.98)
"""

from importlib import import_module

# 1.1.0: dead-node TX/RX accounting fixes changed cell outcomes, so the
# version bump also invalidates every cached experiment cell.
__version__ = "1.1.0"

#: Public name -> defining module, resolved on first attribute access.
_EXPORTS = {
    # topology
    "Deployment": "repro.topology",
    "uniform_deployment": "repro.topology",
    # kernel / network
    "Simulator": "repro.sim",
    "NetworkStack": "repro.net",
    # aggregation
    "SumAggregate": "repro.aggregation",
    "CountAggregate": "repro.aggregation",
    "AverageAggregate": "repro.aggregation",
    "VarianceAggregate": "repro.aggregation",
    "make_aggregate": "repro.aggregation",
    "build_aggregation_tree": "repro.aggregation",
    "TagProtocol": "repro.aggregation",
    # core protocol
    "IcpdaConfig": "repro.core",
    "IcpdaProtocol": "repro.core",
    "RoundResult": "repro.core",
    "Verdict": "repro.core",
    "localize_polluter": "repro.core",
    "LocalizationResult": "repro.core",
    # service
    "AggregationService": "repro.service",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
