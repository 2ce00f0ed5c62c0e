"""Order statistics the benchmark reports.

Every timing is summarised by nearest-rank percentiles: the reported
value is always one of the measured samples, never an interpolation, and
the helper says how many samples lie beyond it, so a reader can tell a
p90 backed by one straggler from one backed by a hundred.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence


class Percentile(NamedTuple):
    """A nearest-rank percentile and the sample it rests on.

    Attributes
    ----------
    value:
        The sample at rank ``ceil(q * samples)`` of the sorted values.
    samples:
        How many values the percentile was taken over.
    beyond:
        How many samples rank strictly above ``value``'s rank.
    """

    value: float
    samples: int
    beyond: int


def nearest_rank(values: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-quantile of ``values`` (``0 < q <= 1``).

    Raises
    ------
    ValueError
        On an empty sequence or a ``q`` outside ``(0, 1]``.
    """
    if not values:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    count = len(ordered)
    # The epsilon keeps exact products such as 0.9 * 10 from rounding up
    # a whole rank through float error.
    rank = min(count, max(1, math.ceil(q * count - 1e-9)))
    return Percentile(ordered[rank - 1], count, count - rank)


def p50(values: Sequence[float]) -> float:
    """Nearest-rank median (0.0 for no samples)."""
    return nearest_rank(values, 0.5).value if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method). Fewer than two values, or a zero median, have no spread.
    """
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)
