"""Exact arithmetic in a prime field, and constant-term recovery.

The CPDA privacy mechanism is Shamir-style additive masking: node ``i``
hides its reading ``v_i`` inside a random polynomial

    ``f_i(x) = v_i + r_{i,1} x + ... + r_{i,m-1} x^{m-1}``

evaluated at the cluster members' public seeds. The cluster sum is the
constant term of ``Σ_i f_i``, recovered by Lagrange interpolation at 0.
Doing this over ``GF(q)`` (q = 2^61 - 1, a Mersenne prime) keeps every
step exact, so aggregation error in the experiments is attributable to
the *network*, never to numerics.

Readings may be negative (e.g. Celsius temperatures); encoding uses the
centered lift: integers in ``(-q/2, q/2)`` map to ``[0, q)`` and back.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import FieldArithmeticError

#: 2^61 - 1, a Mersenne prime: plenty of headroom for sums of ~1e6
#: fixed-point readings while staying in fast machine-int territory.
MERSENNE_61 = (1 << 61) - 1


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime ``q``.

    All operations take and return canonical representatives in
    ``[0, q)``. Construction validates primality (cheap and prevents an
    entire class of silent corruption).
    """

    #: Cached Lagrange weight sets kept per field instance (see
    #: :meth:`lagrange_weights`); bounded so pathological workloads with
    #: ever-changing seed sets cannot grow memory without limit.
    _WEIGHT_CACHE_MAX = 4096

    def __init__(self, modulus: int = MERSENNE_61) -> None:
        if modulus < 3:
            raise FieldArithmeticError(f"modulus must be >= 3, got {modulus}")
        if not _is_probable_prime(modulus):
            raise FieldArithmeticError(f"modulus {modulus} is not prime")
        self.q = modulus
        self._weight_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    # -- canonical ops -------------------------------------------------------

    def inv_many(self, values: Sequence[int]) -> List[int]:
        """Inverses of several elements with one modular exponentiation
        (Montgomery's trick): invert the running product, then peel the
        individual inverses off with multiplications.

        Raises
        ------
        FieldArithmeticError
            If any element is ``≡ 0``.
        """
        q = self.q
        reduced = [v % q for v in values]
        if not reduced:
            return []
        prefix = [0] * len(reduced)
        running = 1
        for i, v in enumerate(reduced):
            if v == 0:
                raise FieldArithmeticError("zero has no multiplicative inverse")
            prefix[i] = running
            running = running * v % q
        inv_running = pow(running, q - 2, q)
        inverses = [0] * len(reduced)
        for i in range(len(reduced) - 1, -1, -1):
            inverses[i] = inv_running * prefix[i] % q
            inv_running = inv_running * reduced[i] % q
        return inverses

    def sum(self, values: Iterable[int]) -> int:
        """Field sum of an iterable."""
        total = 0
        for value in values:
            total += value
        return total % self.q

    # -- signed encoding -----------------------------------------------------

    def decode_signed(self, element: int) -> int:
        """Signed integer of a centered-lift element: ``element - q`` above
        ``q // 2``, else ``element`` (inputs are lifted as ``value % q``
        with ``|value| < q // 2``)."""
        element %= self.q
        if element > self.q // 2:
            return element - self.q
        return element

    # -- polynomial machinery -------------------------------------------------

    def lagrange_weights(self, xs: Tuple[int, ...]) -> Tuple[int, ...]:
        """Constant-term Lagrange weights ``w_j = Π_{k≠j} x_k / (x_k - x_j)``
        for the evaluation points ``xs``, cached per seed tuple.

        Interpolation at zero is then the dot product ``Σ_j y_j w_j``.
        Every member of an ``m``-cluster recovers with the *same* seed set
        (and every aggregate component reuses it too), so after the first
        solve per cluster recovery is one multiply-accumulate per point.

        Raises
        ------
        FieldArithmeticError
            On empty, duplicate, or zero evaluation points (zero seeds
            would leak constant terms directly and are forbidden by the
            protocol).
        """
        weights = self._weight_cache.get(xs)
        if weights is not None:
            return weights
        if not xs:
            raise FieldArithmeticError("need at least one interpolation point")
        q = self.q
        reduced = [x % q for x in xs]
        if len(set(reduced)) != len(reduced):
            raise FieldArithmeticError(f"duplicate evaluation points in {reduced}")
        if any(x == 0 for x in reduced):
            raise FieldArithmeticError("seed 0 is forbidden (leaks constant term)")
        numerators = []
        denominators = []
        for j, xj in enumerate(reduced):
            numerator, denominator = 1, 1
            for k, xk in enumerate(reduced):
                if k == j:
                    continue
                numerator = numerator * xk % q
                denominator = denominator * (xk - xj) % q
            numerators.append(numerator)
            denominators.append(denominator)
        inverses = self.inv_many(denominators)
        weights = tuple(n * i % q for n, i in zip(numerators, inverses))
        if len(self._weight_cache) >= self._WEIGHT_CACHE_MAX:
            self._weight_cache.clear()
        self._weight_cache[xs] = weights
        return weights

    def lagrange_constant_term(self, points: Sequence[Tuple[int, int]]) -> int:
        """Constant term of the unique degree-``len(points)-1`` polynomial
        through ``points`` — i.e. its value at 0.

        This is the cluster-sum recovery step: members publish
        ``F(x_j) = Σ_i f_i(x_j)``; interpolating at zero yields
        ``Σ_i v_i``. The per-seed-set weights come from
        :meth:`lagrange_weights`, so repeated recoveries over the same
        cluster reduce to a single dot product.

        Raises
        ------
        FieldArithmeticError
            On duplicate or zero evaluation points (zero seeds would leak
            constant terms directly and are forbidden by the protocol).
        """
        weights = self.lagrange_weights(tuple(x for x, _ in points))
        return sum(y * w for (_, y), w in zip(points, weights)) % self.q

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrimeField(q={self.q})"


#: Shared default field instance used across the protocol stack.
DEFAULT_FIELD = PrimeField(MERSENNE_61)


# -- vectorized Mersenne-61 kernels ------------------------------------------
#
# numpy has no 128-bit integers, so ``(a * b) % q`` overflows uint64 for
# field-sized operands. These kernels do the classic split multiply:
# with ``a = a_hi * 2^32 + a_lo`` (a_hi < 2^29 since a < 2^61),
#
#     a * b = a_lo*b_lo + (a_hi*b_lo + a_lo*b_hi) * 2^32 + a_hi*b_hi * 2^64
#
# Every partial product fits uint64 exactly: a_lo*b_lo <= (2^32-1)^2 =
# 2^64 - 2^33 + 1, the cross terms are < 2^61 each (sum < 2^62), and
# a_hi*b_hi < 2^58. Because q = 2^61 - 1 is Mersenne, 2^61 ≡ 1 (mod q)
# and therefore 2^64 ≡ 8 (mod q); splitting the cross sum ``hl`` at bit
# 29 rewrites ``hl * 2^32`` as ``(hl >> 29) + (hl & (2^29-1)) << 32``
# (mod q). The folded total stays < 2^63, so no uint64 wraparound occurs
# anywhere — a property the brute-force test against :class:`PrimeField`
# pins down on the extreme operands.

_M61 = np.uint64(MERSENNE_61)
_M61_LOW32 = np.uint64(0xFFFFFFFF)
_M61_LOW29 = np.uint64((1 << 29) - 1)
_SHIFT_61 = np.uint64(61)
_SHIFT_32 = np.uint64(32)
_SHIFT_29 = np.uint64(29)
_SHIFT_3 = np.uint64(3)


def m61_reduce(values: np.ndarray) -> np.ndarray:
    """Reduce arbitrary uint64 values into canonical ``[0, 2^61 - 1)``.

    One Mersenne fold (``v = (v >> 61) + (v & q)`` uses ``2^61 ≡ 1``)
    brings any uint64 below ``q + 8``; a conditional subtract finishes.
    """
    v = np.asarray(values, dtype=np.uint64)
    t = (v >> _SHIFT_61) + (v & _M61)
    return np.where(t >= _M61, t - _M61, t)


def m61_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field addition of canonical operands (broadcasting)."""
    s = np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)
    t = (s >> _SHIFT_61) + (s & _M61)
    return np.where(t >= _M61, t - _M61, t)


def m61_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field subtraction of canonical operands (broadcasting)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    # a - b + q never underflows for canonical operands and stays < 2^62.
    s = a + (_M61 - b)
    t = (s >> _SHIFT_61) + (s & _M61)
    return np.where(t >= _M61, t - _M61, t)


def m61_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of canonical operands (broadcasting).

    Operands must already be reduced (``< 2^61 - 1``); the split-multiply
    bounds above only hold for canonical inputs.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a_hi = a >> _SHIFT_32
    a_lo = a & _M61_LOW32
    b_hi = b >> _SHIFT_32
    b_lo = b & _M61_LOW32
    ll = a_lo * b_lo
    hl = a_hi * b_lo + a_lo * b_hi
    hh = a_hi * b_hi
    t = (
        (ll >> _SHIFT_61)
        + (ll & _M61)
        + (hl >> _SHIFT_29)
        + ((hl & _M61_LOW29) << _SHIFT_32)
        + (hh << _SHIFT_3)
    )
    t = (t >> _SHIFT_61) + (t & _M61)
    return np.where(t >= _M61, t - _M61, t)


def m61_pow(base: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise ``base ** exponent`` in the field (exponent >= 0).

    The exponent is a Python int shared by all elements — binary
    exponentiation costs ~2 vectorized multiplies per bit, which is how
    :func:`m61_inv` reaches Fermat inverses (exponent ``q - 2``) in ~120
    kernel calls regardless of array size.
    """
    if exponent < 0:
        raise FieldArithmeticError(
            f"negative exponent {exponent}; use m61_inv() first"
        )
    base = m61_reduce(np.asarray(base, dtype=np.uint64))
    result = np.ones_like(base)
    while exponent:
        if exponent & 1:
            result = m61_mul(result, base)
        base = m61_mul(base, base)
        exponent >>= 1
    return result


def m61_inv(values: np.ndarray) -> np.ndarray:
    """Elementwise Fermat inverse ``v ** (q - 2)`` of canonical operands.

    Raises
    ------
    FieldArithmeticError
        If any element is ``≡ 0``.
    """
    v = m61_reduce(np.asarray(values, dtype=np.uint64))
    if np.any(v == 0):
        raise FieldArithmeticError("zero has no multiplicative inverse")
    return m61_pow(v, MERSENNE_61 - 2)


def m61_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Field sum of canonical operands along ``axis``.

    Summing more than ``2^3`` field elements can overflow uint64, so the
    accumulator is folded after every addend (each step stays < 2^62).
    """
    v = np.asarray(values, dtype=np.uint64)
    v = np.moveaxis(v, axis, 0)
    total = np.zeros(v.shape[1:], dtype=np.uint64)
    for row in v:
        s = total + row
        t = (s >> _SHIFT_61) + (s & _M61)
        total = np.where(t >= _M61, t - _M61, t)
    return total
