"""Unit tests for prime-field arithmetic and interpolation."""

import pytest

import numpy as np

from repro.core.field import DEFAULT_FIELD, MERSENNE_61, PrimeField
from repro.core.shares import generate_share_bundles
from repro.errors import FieldArithmeticError
from tests.oracles import encode_signed, eval_poly, solve_vandermonde


class TestConstruction:
    def test_default_modulus_is_mersenne(self):
        assert DEFAULT_FIELD.q == MERSENNE_61 == 2**61 - 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(FieldArithmeticError):
            PrimeField(2**61 - 2)
        with pytest.raises(FieldArithmeticError):
            PrimeField(91)  # 7 * 13

    def test_small_primes_accepted(self):
        for q in (3, 5, 7, 101, 257):
            assert PrimeField(q).q == q

    def test_too_small_modulus_rejected(self):
        with pytest.raises(FieldArithmeticError):
            PrimeField(2)


class TestArithmetic:
    field = PrimeField(101)

    def test_add_wraps(self):
        assert self.field.add(100, 5) == 4

    def test_sub_wraps(self):
        assert self.field.sub(3, 5) == 99

    def test_neg(self):
        assert self.field.sub(0, 1) == 100
        assert self.field.sub(0, 0) == 0

    def test_mul(self):
        assert self.field.mul(10, 11) == 110 % 101

    def test_inverse_property(self):
        values = list(range(1, 101))
        for a, inverse in zip(values, self.field.inv_many(values)):
            assert self.field.mul(a, inverse) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(FieldArithmeticError):
            self.field.inv_many([3, 0])

    def test_power(self):
        assert self.field.power(2, 10) == 1024 % 101
        with pytest.raises(FieldArithmeticError):
            self.field.power(2, -1)

    def test_sum(self):
        assert self.field.sum([100, 100, 100]) == 300 % 101


class TestSignedEncoding:
    field = PrimeField(101)

    def test_roundtrip_positive(self):
        assert self.field.decode_signed(encode_signed(self.field, 42)) == 42

    def test_roundtrip_negative(self):
        assert self.field.decode_signed(encode_signed(self.field, -42)) == -42

    def test_zero(self):
        assert self.field.decode_signed(encode_signed(self.field, 0)) == 0

    def test_out_of_range_rejected(self):
        # Share generation applies the centered lift to every input.
        for value in (51, -51):
            with pytest.raises(FieldArithmeticError, match="outside centered range"):
                generate_share_bundles(
                    self.field, 0, [value], {0: 1, 1: 2}, np.random.default_rng(0)
                )

    def test_large_field_headroom(self):
        value = 10**17
        assert DEFAULT_FIELD.decode_signed(
            encode_signed(DEFAULT_FIELD, value)
        ) == value


class TestPolynomials:
    field = PrimeField(101)

    def test_eval_poly_horner(self):
        # f(x) = 3 + 2x + x^2 at x=4 -> 3 + 8 + 16 = 27
        assert eval_poly(self.field, [3, 2, 1], 4) == 27

    def test_constant_poly(self):
        assert eval_poly(self.field, [7], 99) == 7

    def test_lagrange_recovers_constant_term(self):
        coefficients = [17, 5, 99]
        points = [(x, eval_poly(self.field, coefficients, x)) for x in (1, 2, 3)]
        assert self.field.lagrange_constant_term(points) == 17

    def test_lagrange_single_point_degree_zero(self):
        assert self.field.lagrange_constant_term([(5, 33)]) == 33

    def test_lagrange_rejects_duplicates(self):
        with pytest.raises(FieldArithmeticError):
            self.field.lagrange_constant_term([(1, 5), (1, 6)])

    def test_lagrange_rejects_zero_seed(self):
        with pytest.raises(FieldArithmeticError):
            self.field.lagrange_constant_term([(0, 5), (1, 6)])

    def test_lagrange_rejects_empty(self):
        with pytest.raises(FieldArithmeticError):
            self.field.lagrange_constant_term([])

    def test_vandermonde_solve_full_coefficients(self):
        coefficients = [11, 22, 33, 44]
        points = [
            (x, eval_poly(self.field, coefficients, x)) for x in (1, 2, 3, 4)
        ]
        assert solve_vandermonde(self.field, points) == coefficients

    def test_vandermonde_agrees_with_lagrange(self):
        coefficients = [63, 1, 2]
        points = [(x, eval_poly(self.field, coefficients, x)) for x in (5, 9, 17)]
        assert (
            solve_vandermonde(self.field, points)[0]
            == self.field.lagrange_constant_term(points)
        )

    def test_works_in_default_field(self):
        field = DEFAULT_FIELD
        coefficients = [123456789, 987654321, 555]
        points = [(x, eval_poly(field, coefficients, x)) for x in (10, 20, 30)]
        assert field.lagrange_constant_term(points) == 123456789
