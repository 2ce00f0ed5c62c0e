"""Additive aggregate-function algebra.

The paper restricts itself to *additive* aggregation (``y = Σ r_i``) and
notes that this is not restrictive: COUNT, AVERAGE, VARIANCE and STD are
exact combinations of additive components, and MIN/MAX are power-mean
limits (``max = lim_{k->inf} (Σ x^k / n)^{1/k}``). Every aggregate here
is therefore expressed as

* ``components(reading) -> tuple[int, ...]`` — per-sensor additive inputs,
  fixed-point encoded so arithmetic is exact;
* ``component_keys`` — what each component sums, so aggregates that
  share a component can carry it once (:class:`CompositeAggregate`);
* elementwise integer addition as the only combine operation;
* ``finalize(totals) -> float`` — decode at the base station.

This exact-integer formulation is what lets the iCPDA prime-field share
algebra carry any of these aggregates without precision loss.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import AggregationError

#: What one component sums under the shared codec: ``("units", p)`` is
#: Σ units^p (COUNT is p=0, SUM p=1), ``("recip", k)`` is MIN~'s scaled
#: Σ 1/units^k. Equal keys mean equal components for every reading.
ComponentKey = Tuple[str, int]


@dataclass(frozen=True)
class FixedPointCodec:
    """Scale floats into exact integers and back.

    Attributes
    ----------
    scale:
        Units per 1.0 of reading; default 100 (two decimal places), which
        matches typical sensor ADC resolution.
    """

    scale: int = 100

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise AggregationError(f"scale must be >= 1, got {self.scale}")

    def encode(self, value: float) -> int:
        """Float reading -> integer units (round-half-away semantics of
        Python's round are fine at sensor resolutions)."""
        return int(round(value * self.scale))

    def decode(self, units: int) -> float:
        """Integer units -> float reading."""
        return units / self.scale

    def decode_power(self, units: int, power: int) -> float:
        """Decode a sum of ``power``-th powers of encoded readings."""
        return units / (self.scale**power)


class AdditiveAggregate(ABC):
    """Base class: an aggregate computable by elementwise integer sums."""

    #: Human-readable name used in results and traces.
    name: str = "abstract"

    #: One :data:`ComponentKey` per component, in component order.
    component_keys: Tuple[ComponentKey, ...] = ()

    def __init__(self, codec: FixedPointCodec = FixedPointCodec()) -> None:
        self.codec = codec

    @property
    def arity(self) -> int:
        """Number of additive components each sensor contributes."""
        return len(self.component_keys)

    @abstractmethod
    def components(self, reading: float) -> Tuple[int, ...]:
        """Per-sensor additive inputs for one reading."""

    @abstractmethod
    def finalize(self, totals: Sequence[int]) -> float:
        """Decode the network-wide component sums into the answer."""

    def combine(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        """Elementwise sum of two partial component vectors."""
        if len(a) != self.arity or len(b) != self.arity:
            raise AggregationError(
                f"{self.name}: partials must have arity {self.arity}, "
                f"got {len(a)} and {len(b)}"
            )
        return tuple(x + y for x, y in zip(a, b))

    def identity(self) -> Tuple[int, ...]:
        """The neutral partial (all zeros)."""
        return (0,) * self.arity

    def true_value(self, readings: Sequence[float]) -> float:
        """Ground truth over raw readings (for accuracy metrics)."""
        totals = self.identity()
        for reading in readings:
            totals = self.combine(totals, self.components(reading))
        return self.finalize(totals)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(scale={self.codec.scale})"


class SumAggregate(AdditiveAggregate):
    """Exact SUM of readings."""

    name = "sum"
    component_keys = (("units", 1),)

    def components(self, reading: float) -> Tuple[int, ...]:
        return (self.codec.encode(reading),)

    def finalize(self, totals: Sequence[int]) -> float:
        return self.codec.decode(totals[0])


class CountAggregate(AdditiveAggregate):
    """COUNT of participating sensors (each contributes 1)."""

    name = "count"
    component_keys = (("units", 0),)

    def components(self, reading: float) -> Tuple[int, ...]:
        del reading
        return (1,)

    def finalize(self, totals: Sequence[int]) -> float:
        return float(totals[0])


class AverageAggregate(AdditiveAggregate):
    """AVERAGE via the (sum, count) pair."""

    name = "average"
    component_keys = (("units", 1), ("units", 0))

    def components(self, reading: float) -> Tuple[int, ...]:
        return (self.codec.encode(reading), 1)

    def finalize(self, totals: Sequence[int]) -> float:
        total, count = totals
        if count == 0:
            raise AggregationError("average of zero contributors is undefined")
        return self.codec.decode(total) / count


class VarianceAggregate(AdditiveAggregate):
    """Population VARIANCE via (count, sum, sum-of-squares) — the exact
    construction the paper gives for non-trivially-additive statistics."""

    name = "variance"
    component_keys = (("units", 0), ("units", 1), ("units", 2))

    def components(self, reading: float) -> Tuple[int, ...]:
        units = self.codec.encode(reading)
        return (1, units, units * units)

    def finalize(self, totals: Sequence[int]) -> float:
        count, total, total_sq = totals
        if count == 0:
            raise AggregationError("variance of zero contributors is undefined")
        mean = self.codec.decode(total) / count
        mean_sq = self.codec.decode_power(total_sq, 2) / count
        return max(mean_sq - mean * mean, 0.0)


class _PowerMeanAggregate(AdditiveAggregate):
    """Shared machinery for the MIN/MAX power-mean approximations.

    ``max(x_1..x_N) = lim_{k->inf} (Σ x_i^k / N)^{1/k}`` — the paper
    approximates with a large finite ``k``. Dividing by the count makes
    this the ``k``-power mean, which lies in ``[min, max]`` at every
    ``k`` (without it the answer grows as ``N^{1/k}``); MIN uses ``-k``.
    Each sensor contributes ``(1, power term)``. Readings must be
    positive for the approximation to make sense; non-positive readings
    raise.
    """

    #: Key kind of the power term: Σu^k or MIN~'s reciprocal.
    _power_key = "units"

    def __init__(
        self, codec: FixedPointCodec = FixedPointCodec(), power: int = 8
    ) -> None:
        super().__init__(codec)
        if power < 1:
            raise AggregationError(f"power must be >= 1, got {power}")
        self.power = power
        self.component_keys = (("units", 0), (self._power_key, power))

    def _encode_power(self, reading: float) -> int:
        if reading <= 0:
            raise AggregationError(
                f"{self.name}: power-mean approximation needs positive "
                f"readings, got {reading}"
            )
        return self.codec.encode(reading) ** self.power

    def _count_and_total(self, totals: Sequence[int]) -> Tuple[int, int]:
        count, total = totals
        if count <= 0 or total <= 0:
            raise AggregationError(f"{self.name} of zero contributors is undefined")
        return count, total


class MaxApproxAggregate(_PowerMeanAggregate):
    """MAX approximated by the ``k``-power mean (k = ``power``)."""

    name = "max~"

    def components(self, reading: float) -> Tuple[int, ...]:
        return (1, self._encode_power(reading))

    def finalize(self, totals: Sequence[int]) -> float:
        count, total = self._count_and_total(totals)
        return (total / count) ** (1.0 / self.power) / self.codec.scale


class MinApproxAggregate(_PowerMeanAggregate):
    """MIN approximated by the ``-k``-power mean; sensors contribute
    scaled reciprocal powers ``R·s^k / units^k`` so the encoding stays a
    well-conditioned integer for realistic reading magnitudes."""

    name = "min~"
    _power_key = "recip"

    #: Extra integer headroom for the reciprocal encoding.
    _RECIP_SCALE = 10**18

    def _numerator(self) -> int:
        return self._RECIP_SCALE * self.codec.scale**self.power

    def components(self, reading: float) -> Tuple[int, ...]:
        units = self._encode_power(reading)
        return (1, self._numerator() // units)

    def finalize(self, totals: Sequence[int]) -> float:
        count, total = self._count_and_total(totals)
        powered = count * self._numerator() / total
        return powered ** (1.0 / self.power) / self.codec.scale


class CompositeAggregate(AdditiveAggregate):
    """Several aggregates computed in one round (multi-query).

    The component layout is the union of the parts' :attr:`component_keys`
    in first-seen order, so a component several parts need (COUNT inside
    AVG, VAR and the power means; SUM inside AVG and VAR) is carried
    once — the TAG-style "simultaneous queries" feature at zero extra
    rounds, with the per-message cost growing with the number of
    *distinct* components. Every part is evaluated once per reading and
    finalised from its own columns.

    :meth:`finalize` returns the *first* constituent's value (so the
    composite drops into any single-valued pipeline, e.g. the protocol's
    accuracy accounting); :meth:`finalize_all` decodes everything.
    """

    name = "composite"

    def __init__(self, parts: Sequence[AdditiveAggregate]) -> None:
        if not parts:
            raise AggregationError("a composite needs at least one aggregate")
        codecs = {part.codec.scale for part in parts}
        if len(codecs) != 1:
            raise AggregationError(
                f"constituents must share one fixed-point scale, got {codecs}"
            )
        super().__init__(parts[0].codec)
        self.parts = list(parts)
        self.name = "+".join(part.name for part in self.parts)
        columns: Dict[ComponentKey, int] = {}
        for part in self.parts:
            for key in part.component_keys:
                columns.setdefault(key, len(columns))
        self.component_keys = tuple(columns)
        #: Each part's component positions in the union layout.
        self._columns = [
            tuple(columns[key] for key in part.component_keys) for part in self.parts
        ]

    def components(self, reading: float) -> Tuple[int, ...]:
        values = [0] * len(self.component_keys)
        for part, columns in zip(self.parts, self._columns):
            for column, value in zip(columns, part.components(reading)):
                values[column] = value
        return tuple(values)

    def finalize(self, totals: Sequence[int]) -> float:
        return self.parts[0].finalize([totals[c] for c in self._columns[0]])

    def finalize_all(self, totals: Sequence[int]) -> dict:
        """Decode every constituent: ``{name: value}``."""
        return {
            part.name: part.finalize([totals[c] for c in columns])
            for part, columns in zip(self.parts, self._columns)
        }


_REGISTRY = {
    "sum": SumAggregate,
    "count": CountAggregate,
    "average": AverageAggregate,
    "variance": VarianceAggregate,
    "max": MaxApproxAggregate,
    "min": MinApproxAggregate,
}


def make_aggregate(
    name: str, codec: FixedPointCodec = FixedPointCodec()
) -> AdditiveAggregate:
    """Factory: build an aggregate by name.

    ``name`` may be a single aggregate (``"sum"``) or a ``+``-joined
    composite (``"sum+count+variance"``) evaluated in one round.

    Raises
    ------
    AggregationError
        For unknown names.
    """
    if "+" in name:
        parts = [
            make_aggregate(part.strip(), codec)
            for part in name.split("+")
            if part.strip()
        ]
        return CompositeAggregate(parts)
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise AggregationError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(codec)
