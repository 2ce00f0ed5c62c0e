"""The paper's contribution: cluster-based integrity-enforcing,
privacy-preserving data aggregation (iCPDA).

Layers, bottom-up:

* :mod:`repro.core.field` — exact arithmetic in a prime field ``GF(q)``
  and Lagrange recovery of a share polynomial's constant term.
* :mod:`repro.core.shares` — CPDA polynomial share generation: a private
  reading is split into ``m`` shares such that any ``m-1`` reveal nothing.
* :mod:`repro.core.arq` — the stop-and-wait hop ARQ every acknowledged
  census, share, F-value and report hop runs under.
* :mod:`repro.core.clustering` — randomized distributed cluster formation
  (self-election with probability ``p_c``, join, size bounds, census).
* :mod:`repro.core.intracluster` — the in-cluster share exchange and
  cluster-sum recovery protocol.
* :mod:`repro.core.integrity` — peer monitoring: witnesses overhear the
  head's itemized report and raise alarms; the base station renders a
  verdict under the loss-tolerance threshold ``Th``.
* :mod:`repro.core.localization` — O(log N)-round isolation of a
  polluting cluster by subset re-aggregation.
* :mod:`repro.core.protocol` — the full four-phase orchestrator.

Exports resolve lazily (PEP 562): the phase modules are importable
without the orchestrator's simulator/backends coming along.
"""

from importlib import import_module

#: Public name -> defining module, resolved on first attribute access.
_EXPORTS = {
    "Cluster": "repro.core.clustering",
    "ClusteringResult": "repro.core.clustering",
    "IcpdaConfig": "repro.core.config",
    "DEFAULT_FIELD": "repro.core.field",
    "PrimeField": "repro.core.field",
    "LocalizationResult": "repro.core.localization",
    "localize_polluter": "repro.core.localization",
    "IcpdaProtocol": "repro.core.protocol",
    "AlarmRecord": "repro.core.results",
    "RoundResult": "repro.core.results",
    "Verdict": "repro.core.results",
    "ShareBundle": "repro.core.shares",
    "generate_share_bundles": "repro.core.shares",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "PrimeField",
    "DEFAULT_FIELD",
    "ShareBundle",
    "generate_share_bundles",
    "Cluster",
    "ClusteringResult",
    "IcpdaConfig",
    "IcpdaProtocol",
    "RoundResult",
    "AlarmRecord",
    "Verdict",
    "LocalizationResult",
    "localize_polluter",
]
