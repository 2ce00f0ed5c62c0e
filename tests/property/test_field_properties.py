"""Property-based tests for prime-field arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.field import DEFAULT_FIELD, PrimeField
from tests.oracles import encode_signed, eval_poly, solve_vandermonde

SMALL = PrimeField(10007)

elements = st.integers(min_value=0, max_value=10006)
nonzero = st.integers(min_value=1, max_value=10006)


class TestFieldAxioms:
    @given(elements, elements)
    def test_addition_commutes(self, a, b):
        assert SMALL.add(a, b) == SMALL.add(b, a)

    @given(elements, elements, elements)
    def test_addition_associates(self, a, b, c):
        assert SMALL.add(SMALL.add(a, b), c) == SMALL.add(a, SMALL.add(b, c))

    @given(elements, elements, elements)
    def test_multiplication_distributes(self, a, b, c):
        left = SMALL.mul(a, SMALL.add(b, c))
        right = SMALL.add(SMALL.mul(a, b), SMALL.mul(a, c))
        assert left == right

    @given(elements)
    def test_additive_inverse(self, a):
        assert SMALL.add(a, (-a) % SMALL.q) == 0

    @given(nonzero)
    def test_multiplicative_inverse(self, a):
        assert SMALL.mul(a, SMALL.inv_many([a])[0]) == 1

    @given(elements, elements)
    def test_sub_is_add_neg(self, a, b):
        assert SMALL.sub(a, b) == SMALL.add(a, (-b) % SMALL.q)


class TestSignedEncoding:
    @given(st.integers(min_value=-5000, max_value=5000))
    def test_roundtrip(self, value):
        assert SMALL.decode_signed(encode_signed(SMALL, value)) == value

    @given(
        st.integers(min_value=-2500, max_value=2500),
        st.integers(min_value=-2500, max_value=2500),
    )
    def test_homomorphic_addition(self, a, b):
        encoded = SMALL.add(encode_signed(SMALL, a), encode_signed(SMALL, b))
        assert SMALL.decode_signed(encoded) == a + b


class TestInterpolation:
    @given(
        st.lists(elements, min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=50)
    def test_lagrange_recovers_constant(self, coefficients, data):
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=10006),
                min_size=len(coefficients),
                max_size=len(coefficients),
                unique=True,
            )
        )
        points = [(x, eval_poly(SMALL, coefficients, x)) for x in xs]
        assert SMALL.lagrange_constant_term(points) == coefficients[0]

    @given(st.lists(elements, min_size=1, max_size=5), st.data())
    @settings(max_examples=50)
    def test_vandermonde_solve_exact(self, coefficients, data):
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=10006),
                min_size=len(coefficients),
                max_size=len(coefficients),
                unique=True,
            )
        )
        points = [(x, eval_poly(SMALL, coefficients, x)) for x in xs]
        assert solve_vandermonde(SMALL, points) == list(coefficients)

    @given(
        st.integers(min_value=-(10**15), max_value=10**15),
        st.integers(min_value=2, max_value=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_default_field_share_roundtrip(self, secret, degree, rand):
        """Random masking polynomials over the production field always
        interpolate back to the secret."""
        field = DEFAULT_FIELD
        coefficients = [encode_signed(field, secret)] + [
            rand.randrange(field.q) for _ in range(degree)
        ]
        xs = rand.sample(range(1, 10_000), degree + 1)
        points = [(x, eval_poly(field, coefficients, x)) for x in xs]
        recovered = field.decode_signed(field.lagrange_constant_term(points))
        assert recovered == secret


class TestCachedLagrangeWeights:
    """The cached-weight fast path must be indistinguishable from an
    independent uncached solve."""

    @given(st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cached_recovery_equals_uncached_solve(self, m, data):
        field = PrimeField(DEFAULT_FIELD.q)  # fresh instance: cold cache
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=100_000),
                min_size=m,
                max_size=m,
                unique=True,
            )
        )
        ys = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=field.q - 1),
                min_size=m,
                max_size=m,
            )
        )
        points = list(zip(xs, ys))
        cold = field.lagrange_constant_term(points)
        warm = field.lagrange_constant_term(points)  # cache hit
        # solve_vandermonde is an independent Newton-form solver that
        # never touches the weight cache.
        uncached = solve_vandermonde(field, points)[0]
        assert cold == warm == uncached

    @given(st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_weights_respect_point_order(self, m, data):
        field = PrimeField(DEFAULT_FIELD.q)
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=100_000),
                min_size=m,
                max_size=m,
                unique=True,
            )
        )
        ys = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=field.q - 1),
                min_size=m,
                max_size=m,
            )
        )
        points = list(zip(xs, ys))
        shuffled = list(reversed(points))
        assert field.lagrange_constant_term(points) == field.lagrange_constant_term(
            shuffled
        )
