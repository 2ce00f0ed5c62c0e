"""Query vocabulary for the aggregation service.

A *query* names one statistic over the current epoch's readings. The
service batches every distinct kind pending at round start into one
:class:`~repro.aggregation.functions.CompositeAggregate`, so a round
carries all of them exactly. The composite lays out the union of the
kinds' component keys, so a component several kinds share (COUNT, SUM)
rides once: the per-message cost grows with the number of distinct
components, never the round count. All six kinds together carry five:
Σu, Σ1, Σu², MIN~'s Σ1/u^k and MAX~'s Σu^k.

Compatibility: every kind here is additive under one shared fixed-point
codec, so *all* kinds are mutually batchable. What is **not** batchable
is a different codec scale — the composite constructor rejects mixed
scales, and the service builds every part from the protocol config's
``fixed_point_scale``, so the invariant holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.aggregation.functions import (
    AdditiveAggregate,
    AverageAggregate,
    CompositeAggregate,
    CountAggregate,
    FixedPointCodec,
    MaxApproxAggregate,
    MinApproxAggregate,
    SumAggregate,
    VarianceAggregate,
)
from repro.errors import ProtocolError

#: Canonical query kinds, in the order constituents are laid out inside
#: a batched round's composite aggregate (stable order = stable
#: first-seen component layout = reproducible rounds for a given batch
#: composition).
QUERY_KINDS: Tuple[str, ...] = ("sum", "avg", "var", "min", "max", "count")

_ALIASES = {
    "sum": "sum",
    "avg": "avg",
    "average": "avg",
    "mean": "avg",
    "var": "var",
    "variance": "var",
    "min": "min",
    "max": "max",
    "count": "count",
}

#: Power-mean exponent used for served MIN/MAX queries. The library
#: default (8) overflows the Mersenne-61 share field at typical sensor
#: magnitudes (reading 20.0 at scale 100 -> 2000^8 ≈ 2.6e26 ≫ 2^61);
#: k=3 keeps per-sensor components ≤ ~1e10 and network sums well inside
#: the field for 10^5-node deployments, at the cost of a softer
#: approximation (documented in docs/SERVICE.md).
POWER_MEAN_K = 3


@dataclass(frozen=True)
class Query:
    """One normalized service query.

    Attributes
    ----------
    kind:
        A canonical member of :data:`QUERY_KINDS`.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ProtocolError(
                f"unknown query kind {self.kind!r}; known: {list(QUERY_KINDS)}"
            )


def parse_query(query) -> Query:
    """Normalize ``query`` (a :class:`Query` or a kind string, aliases
    and case accepted) into a canonical :class:`Query`."""
    if isinstance(query, Query):
        return query
    if not isinstance(query, str):
        raise ProtocolError(
            f"a query is a Query or a kind string, got {type(query).__name__}"
        )
    kind = _ALIASES.get(query.strip().lower())
    if kind is None:
        raise ProtocolError(
            f"unknown query kind {query!r}; known: {list(QUERY_KINDS)}"
        )
    return Query(kind)


def _make_part(kind: str, codec: FixedPointCodec) -> AdditiveAggregate:
    if kind == "sum":
        return SumAggregate(codec)
    if kind == "avg":
        return AverageAggregate(codec)
    if kind == "var":
        return VarianceAggregate(codec)
    if kind == "min":
        return MinApproxAggregate(codec, power=POWER_MEAN_K)
    if kind == "max":
        return MaxApproxAggregate(codec, power=POWER_MEAN_K)
    if kind == "count":
        return CountAggregate(codec)
    raise ProtocolError(f"unknown query kind {kind!r}")  # pragma: no cover


def build_batch_aggregate(
    queries: Iterable[Query], scale: int
) -> Tuple[CompositeAggregate, Sequence[Query], Dict[Query, str]]:
    """Build the one aggregate that answers every query in ``queries``.

    Returns ``(aggregate, batch_order, part_names)`` where
    ``batch_order`` is the deduplicated queries in canonical
    :data:`QUERY_KINDS` order (the constituent layout) and
    ``part_names`` maps each query to its constituent's name inside
    ``aggregate.finalize_all`` output.
    """
    deduped = sorted(
        {parse_query(q) for q in queries}, key=lambda q: QUERY_KINDS.index(q.kind)
    )
    if not deduped:
        raise ProtocolError("a batch needs at least one query")
    codec = FixedPointCodec(scale=scale)
    parts = [_make_part(query.kind, codec) for query in deduped]
    aggregate = CompositeAggregate(parts)
    part_names = {query: part.name for query, part in zip(deduped, parts)}
    return aggregate, deduped, part_names
