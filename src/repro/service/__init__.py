"""Long-lived aggregation service: iCPDA as a query-serving system.

The :mod:`repro.core` layer answers *one* question per protocol object;
this package keeps a single live :class:`~repro.core.protocol.IcpdaProtocol`
serving many epochs of queries over one persistent deployment:

* :class:`~repro.service.service.AggregationService` — the synchronous
  core: owns the protocol instance, batches compatible queries into one
  round via a :class:`~repro.aggregation.functions.CompositeAggregate`,
  caches answers keyed by ``(query, epoch)``, and drives operator
  exclusion of localized polluters on the live instance (no rebuild, so
  energy/byte/phase ledgers and RNG streams accumulate truthfully).
  Its ``collect`` method is the paper's operator loop: serve epochs,
  barring each witness-named culprit, until one is accepted.
* :class:`~repro.service.gateway.AggregationGateway` — the asyncio
  front-end: accepts SUM/AVG/VAR/MIN/MAX/COUNT queries from many
  concurrent clients, applies admission control (bounded queue, explicit
  rejection), coalesces whatever is pending into one served round, and
  resolves every waiter.

The protocol/semantics contract is documented in ``docs/SERVICE.md``.
"""

from importlib import import_module

_EXPORTS = {
    "Query": "repro.service.queries",
    "parse_query": "repro.service.queries",
    "build_batch_aggregate": "repro.service.queries",
    "QUERY_KINDS": "repro.service.queries",
    "AggregationService": "repro.service.service",
    "ServedAnswer": "repro.service.service",
    "EpochReport": "repro.service.service",
    "AggregationGateway": "repro.service.gateway",
    "QueryRejected": "repro.service.gateway",
    "GatewayStats": "repro.service.gateway",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
