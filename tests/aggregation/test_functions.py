"""Unit tests for the additive aggregate algebra."""

import pytest

from repro.aggregation.functions import (
    AverageAggregate,
    CountAggregate,
    FixedPointCodec,
    MaxApproxAggregate,
    MinApproxAggregate,
    SumAggregate,
    VarianceAggregate,
    make_aggregate,
)
from repro.errors import AggregationError


class TestFixedPoint:
    def test_roundtrip(self):
        codec = FixedPointCodec(scale=100)
        assert codec.decode(codec.encode(21.37)) == pytest.approx(21.37)

    def test_negative_values(self):
        codec = FixedPointCodec(scale=100)
        assert codec.decode(codec.encode(-5.25)) == pytest.approx(-5.25)

    def test_power_decoding(self):
        codec = FixedPointCodec(scale=10)
        units = codec.encode(2.0)  # 20
        assert codec.decode_power(units * units, 2) == pytest.approx(4.0)

    def test_invalid_scale(self):
        with pytest.raises(AggregationError):
            FixedPointCodec(scale=0)


class TestSum:
    def test_exact_sum(self):
        aggregate = SumAggregate()
        totals = aggregate.identity()
        for value in (1.25, 2.50, 3.75):
            totals = aggregate.combine(totals, aggregate.components(value))
        assert aggregate.finalize(totals) == pytest.approx(7.5)

    def test_true_value(self):
        assert SumAggregate().true_value([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_arity_mismatch_rejected(self):
        aggregate = SumAggregate()
        with pytest.raises(AggregationError):
            aggregate.combine((1,), (1, 2))


class TestCount:
    def test_counts_contributors(self):
        aggregate = CountAggregate()
        assert aggregate.true_value([5.0, -2.0, 99.0]) == 3.0

    def test_reading_value_irrelevant(self):
        aggregate = CountAggregate()
        assert aggregate.components(123.0) == aggregate.components(-7.0)


class TestAverage:
    def test_exact_average(self):
        aggregate = AverageAggregate()
        assert aggregate.true_value([10.0, 20.0, 30.0]) == pytest.approx(20.0)

    def test_zero_contributors_rejected(self):
        with pytest.raises(AggregationError):
            AverageAggregate().finalize((0, 0))


class TestVariance:
    def test_matches_numpy(self):
        import numpy as np

        readings = [12.5, 17.75, 20.0, 21.25, 30.0]
        aggregate = VarianceAggregate()
        assert aggregate.true_value(readings) == pytest.approx(
            float(np.var(readings)), rel=1e-9
        )

    def test_constant_readings_zero_variance(self):
        assert VarianceAggregate().true_value([5.0] * 10) == pytest.approx(0.0)

    def test_zero_contributors_rejected(self):
        with pytest.raises(AggregationError):
            VarianceAggregate().finalize((0, 0, 0))


class TestPowerMeanApprox:
    def test_max_approx_close_to_true_max(self):
        aggregate = MaxApproxAggregate(power=16)
        readings = [3.0, 8.0, 5.0, 7.9]
        approx = aggregate.true_value(readings)
        assert 7.5 < approx <= 8.0  # a power mean never passes the max

    def test_min_approx_close_to_true_min(self):
        aggregate = MinApproxAggregate(power=16)
        readings = [3.0, 8.0, 5.0]
        approx = aggregate.true_value(readings)
        assert 3.0 <= approx < 3.3

    @pytest.mark.parametrize("cls", [MaxApproxAggregate, MinApproxAggregate])
    def test_power_mean_of_equal_readings_is_the_reading(self, cls):
        # The count normalisation: no growth with N.
        assert cls(power=3).true_value([20.0] * 1000) == pytest.approx(20.0)

    def test_nonpositive_reading_rejected(self):
        with pytest.raises(AggregationError):
            MaxApproxAggregate().components(0.0)
        with pytest.raises(AggregationError):
            MinApproxAggregate().components(-1.0)

    def test_power_validation(self):
        with pytest.raises(AggregationError):
            MaxApproxAggregate(power=0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("sum", SumAggregate),
            ("count", CountAggregate),
            ("average", AverageAggregate),
            ("variance", VarianceAggregate),
            ("max", MaxApproxAggregate),
            ("min", MinApproxAggregate),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_aggregate(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(AggregationError):
            make_aggregate("median")

    def test_case_insensitive(self):
        assert isinstance(make_aggregate("SUM"), SumAggregate)
