"""Reference computations, independent of the library code they check.

The library only ever needs the constant term of an interpolating
polynomial (:meth:`PrimeField.lagrange_constant_term`). These plain
helpers build share points and recover full coefficient vectors another
way (Horner evaluation; Newton divided differences with Fermat
inverses), so tests can check the library's Lagrange path against them.
:func:`encode_signed` is the centered lift share generation applies to
its inputs, one value at a time.

:func:`fluid_loss_row` is the fluid channel's per-link loss law worked
out one sender at a time, to check the transports' whole-graph link
table against; :func:`scalar_distance` is one node pair's length, to
check the link graph's length column against.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.core.field import PrimeField
from repro.errors import FieldArithmeticError


def scalar_distance(deployment: Any, a: int, b: int) -> float:
    """Euclidean distance between nodes ``a`` and ``b`` in meters, one
    pair at a time (the per-pair lookup the DES medium once cached)."""
    diff = deployment.positions[a] - deployment.positions[b]
    return float(np.hypot(diff[0], diff[1]))


def encode_signed(field: PrimeField, value: int) -> int:
    """Centered lift of a signed integer into ``field``: ``value % q`` for
    ``|value| < q // 2`` (what :meth:`PrimeField.decode_signed` undoes)."""
    if abs(value) >= field.q // 2:
        raise FieldArithmeticError(
            f"value {value} outside centered range of GF({field.q})"
        )
    return value % field.q


def eval_poly(field: PrimeField, coefficients: Sequence[int], x: int) -> int:
    """``Σ c_k x^k`` mod ``field.q`` (Horner); ``coefficients[0]`` is the
    constant term."""
    result = 0
    for coefficient in reversed(coefficients):
        result = (result * x + coefficient) % field.q
    return result


def solve_vandermonde(field: PrimeField, points: Sequence[Tuple[int, int]]) -> List[int]:
    """Full coefficient vector of the polynomial through ``points``."""
    q = field.q
    xs = [x % q for x, _ in points]
    n = len(points)
    table = [y % q for _, y in points]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            denominator = (xs[i] - xs[i - level]) % q
            table[i] = (table[i] - table[i - 1]) * pow(denominator, q - 2, q) % q
    coefficients = [0] * n
    basis = [1] + [0] * (n - 1)  # running product Π (x - x_i)
    for i in range(n):
        coefficients = [(c + table[i] * b) % q for c, b in zip(coefficients, basis)]
        basis = [
            ((basis[k - 1] if k else 0) - basis[k] * xs[i]) % q for k in range(n)
        ]
    return coefficients


def fluid_loss_row(transport: Any, sender: int) -> List[Tuple[float, float, float]]:
    """``(contended loss probability, congestion share, uncontended loss
    probability)`` of each of ``sender``'s links, in adjacency order.

    Contended frames pay congestion (a power law in the receiver's
    degree, capped) + ambient + fading; frames alone in the air pay
    ambient + fading only. The share is congestion's part of the
    contended loss, used to attribute one coin to either cause."""
    neighbors = transport.adjacency[sender]
    if not neighbors:
        return []
    radio = transport.radio
    params = transport.params
    indices = np.asarray(neighbors, dtype=np.intp)
    degrees = np.array(
        [float(len(transport.adjacency[node])) for node in neighbors]
    )
    congestion = np.minimum(
        params.congestion_cap,
        params.congestion_coeff * degrees**params.congestion_exponent,
    )
    positions = transport.deployment.positions
    delta = positions[indices] - positions[sender]
    distances = np.hypot(delta[:, 0], delta[:, 1])
    fading = radio.edge_fading * np.clip(distances / radio.range_m, 0.0, 1.0) ** 4
    keep_channel = (1.0 - radio.ambient_loss) * (1.0 - fading)
    keep = keep_channel * (1.0 - congestion)
    channel = radio.ambient_loss + fading
    denominator = congestion + channel
    share = np.divide(
        congestion,
        denominator,
        out=np.zeros_like(congestion),
        where=denominator > 0.0,
    )
    return list(
        zip((1.0 - keep).tolist(), share.tolist(), (1.0 - keep_channel).tolist())
    )
