"""The run-wide metrics registry: one merged, namespaced snapshot.

The paper's claims are all *measurements* — bytes on the air, collision
rates, detection latency, node lifetime — but the instruments live in
different layers (:class:`~repro.sim.kernel.KernelStats`,
:class:`~repro.net.medium.MediumStats`,
:class:`~repro.metrics.counters.MessageCounters`,
:class:`~repro.net.energy.EnergyModel`, per-node MAC stats). A
:class:`MetricsRegistry` gives them a single export surface: each
component registers a named ``snapshot()`` provider, and
:meth:`MetricsRegistry.snapshot` returns one flat dict whose keys are
dotted-namespaced (``kernel.fired``, ``medium.collisions``,
``counters.bytes``, ``energy.total_j``, ``mac.dropped``...).

Providers are called lazily at snapshot time, so registering is free and
the registry always reflects current counters. Nested mappings in a
provider's output are flattened with dots (``energy.per_node.3``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from repro.errors import ReproError

#: Signature of a snapshot provider: no arguments, returns a mapping.
SnapshotProvider = Callable[[], Mapping[str, Any]]


class MetricsRegistry:
    """Named snapshot providers merged into one namespaced dict.

    Registration is free: providers are only ever invoked at snapshot
    time.
    """

    def __init__(self) -> None:
        self._providers: Dict[str, SnapshotProvider] = {}

    def register(
        self,
        namespace: str,
        provider: SnapshotProvider,
        *,
        replace: bool = False,
    ) -> None:
        """Attach ``provider`` under ``namespace``.

        Raises
        ------
        ReproError
            On an invalid namespace, or a duplicate one unless
            ``replace=True`` (components that may be rebuilt on the same
            simulator — e.g. a fresh :class:`~repro.net.stack.NetworkStack`
            — pass ``replace=True``).
        """
        if not namespace or namespace.startswith(".") or namespace.endswith("."):
            raise ReproError(f"invalid metrics namespace {namespace!r}")
        if not replace and namespace in self._providers:
            raise ReproError(f"metrics namespace {namespace!r} already registered")
        self._providers[namespace] = provider

    def __contains__(self, namespace: str) -> bool:
        return namespace in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One flat merged dict: ``"<namespace>.<key>" -> value``.

        Nested mappings are flattened recursively with dotted keys; keys
        are stringified so integer-keyed maps (per-node tables) flatten
        cleanly.
        """
        merged: Dict[str, Any] = {}
        for namespace, value in self.nested().items():
            _flatten(namespace, value, merged)
        return merged

    def nested(self) -> Dict[str, Dict[str, Any]]:
        """Namespace -> that provider's (unflattened) snapshot dict, with
        the providers called in registration order."""
        views: Dict[str, Dict[str, Any]] = {}
        for namespace, provider in self._providers.items():
            value = provider()
            if not isinstance(value, Mapping):
                raise ReproError(
                    f"provider {namespace!r} returned {type(value).__name__}, "
                    "expected a mapping"
                )
            views[namespace] = dict(value)
        return views

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry(namespaces={list(self._providers)})"


def _flatten(prefix: str, value: Mapping[str, Any], out: Dict[str, Any]) -> None:
    for key, item in value.items():
        dotted = f"{prefix}.{key}"
        if isinstance(item, Mapping):
            _flatten(dotted, item, out)
        else:
            out[dotted] = item
