"""Brute-force equivalence of the vectorized Mersenne-61 kernels against
exact Python big-int arithmetic and the scalar
:class:`~repro.core.field.PrimeField` path.

The kernels work in uint64, where a field product would overflow; the
split-multiply layout must therefore be *proved* equal to exact integer
arithmetic, especially on the extreme operands (q-1, the 2^32 split
boundary, all-low-bits values) where an overflow bug would hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.field import (
    MERSENNE_61,
    PrimeField,
    m61_add,
    m61_inv,
    m61_mul,
    m61_pow,
    m61_reduce,
    m61_sub,
    m61_sum,
)
from repro.errors import FieldArithmeticError

Q = MERSENNE_61

#: Operands chosen to stress every carry/fold path of the split multiply:
#: zero, one, the modulus boundary, the 2^32 limb split, the bit-29 cross
#: split, and dense-bit patterns that maximize partial products.
EDGE_VALUES = [
    0,
    1,
    2,
    (1 << 29) - 1,
    1 << 29,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    (1 << 61) - 2,  # q - 1
    Q // 2,
    Q // 2 + 1,
    0x5555555555555555 % Q,
    0x0FFFFFFFFFFFFFFF,
]


@pytest.fixture(scope="module")
def field() -> PrimeField:
    return PrimeField(Q)


def _random_operands(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, Q, size=count, dtype=np.int64).astype(np.uint64)


class TestReduce:
    def test_full_uint64_range(self, field: PrimeField) -> None:
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 1 << 63, size=512, dtype=np.int64).astype(np.uint64)
        # Push half the values into the top uint64 quadrant too.
        raw[::2] |= np.uint64(1 << 63)
        reduced = m61_reduce(raw)
        for value, got in zip(raw.tolist(), reduced.tolist()):
            assert got == value % Q

    def test_edges(self) -> None:
        extremes = np.array(
            [0, 1, Q - 1, Q, Q + 1, 2 * Q, (1 << 64) - 1, 1 << 61, 1 << 62],
            dtype=np.uint64,
        )
        assert m61_reduce(extremes).tolist() == [v % Q for v in extremes.tolist()]


class TestMul:
    def test_random_pairs_vs_scalar(self, field: PrimeField) -> None:
        a = _random_operands(4096, seed=11)
        b = _random_operands(4096, seed=12)
        got = m61_mul(a, b)
        for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
            assert z == (x * y) % Q

    def test_edge_cross_product(self, field: PrimeField) -> None:
        a = np.array(EDGE_VALUES, dtype=np.uint64)[:, None]
        b = np.array(EDGE_VALUES, dtype=np.uint64)[None, :]
        got = m61_mul(a, b)
        for i, x in enumerate(EDGE_VALUES):
            for j, y in enumerate(EDGE_VALUES):
                assert int(got[i, j]) == (x * y) % Q

    def test_broadcasting(self, field: PrimeField) -> None:
        a = _random_operands(64, seed=13).reshape(8, 8)
        b = _random_operands(8, seed=14)
        got = m61_mul(a, b)  # row broadcast
        for i in range(8):
            for j in range(8):
                assert int(got[i, j]) == (int(a[i, j]) * int(b[j])) % Q


class TestAddSub:
    def test_add_vs_scalar(self, field: PrimeField) -> None:
        a = _random_operands(2048, seed=21)
        b = _random_operands(2048, seed=22)
        got = m61_add(a, b)
        for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
            assert z == (x + y) % Q

    def test_sub_vs_scalar(self, field: PrimeField) -> None:
        a = _random_operands(2048, seed=23)
        b = _random_operands(2048, seed=24)
        got = m61_sub(a, b)
        for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
            assert z == (x - y) % Q

    def test_edges(self, field: PrimeField) -> None:
        values = np.array(EDGE_VALUES, dtype=np.uint64)
        assert m61_add(values, values).tolist() == [
            (v + v) % Q for v in EDGE_VALUES
        ]
        assert m61_sub(np.uint64(0), values).tolist() == [
            (-v) % Q for v in EDGE_VALUES
        ]


class TestPowInv:
    def test_pow_vs_scalar(self, field: PrimeField) -> None:
        bases = _random_operands(64, seed=31)
        for exponent in (0, 1, 2, 3, 7, 61, 1 << 20, Q - 2):
            got = m61_pow(bases, exponent)
            for x, z in zip(bases.tolist(), got.tolist()):
                assert z == pow(x, exponent, Q)

    def test_pow_rejects_negative(self) -> None:
        with pytest.raises(FieldArithmeticError):
            m61_pow(np.array([3], dtype=np.uint64), -1)

    def test_inv_vs_scalar(self, field: PrimeField) -> None:
        values = _random_operands(64, seed=32)
        values[values == 0] = 1
        got = m61_inv(values)
        assert got.tolist() == field.inv_many(values.tolist())
        for x, z in zip(values.tolist(), got.tolist()):
            assert (x * z) % Q == 1

    def test_inv_rejects_zero(self) -> None:
        with pytest.raises(FieldArithmeticError):
            m61_inv(np.array([0, 5], dtype=np.uint64))


class TestSum:
    def test_sum_vs_scalar(self, field: PrimeField) -> None:
        values = _random_operands(40 * 17, seed=41).reshape(40, 17)
        got = m61_sum(values, axis=1)
        for row, z in zip(values.tolist(), got.tolist()):
            assert z == field.sum(row)

    def test_sum_axis0_of_maximal_elements(self) -> None:
        # 64 copies of q-1: a naive uint64 accumulator would wrap after
        # eight addends; the per-step fold must not.
        values = np.full((64, 3), Q - 1, dtype=np.uint64)
        got = m61_sum(values, axis=0)
        assert got.tolist() == [(64 * (Q - 1)) % Q] * 3
