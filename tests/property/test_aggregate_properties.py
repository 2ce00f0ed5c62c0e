"""Property-based tests for aggregate-function invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import (
    AverageAggregate,
    CountAggregate,
    SumAggregate,
    VarianceAggregate,
)
from repro.service.queries import QUERY_KINDS, build_batch_aggregate

reading_lists = st.lists(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    min_size=1,
    max_size=50,
)
# MIN~/MAX~ take positive readings only.
positive_reading_lists = st.lists(
    st.floats(min_value=0.5, max_value=1000, allow_nan=False),
    min_size=1,
    max_size=30,
)
batches = st.lists(st.sampled_from(QUERY_KINDS), min_size=1, max_size=6)


class TestCombineAlgebra:
    @given(reading_lists)
    @settings(max_examples=60)
    def test_combine_is_order_independent(self, readings):
        """Folding partials in any order gives the same totals —
        the property that makes in-network aggregation correct."""
        aggregate = SumAggregate()
        partials = [aggregate.components(r) for r in readings]
        forward = aggregate.identity()
        for p in partials:
            forward = aggregate.combine(forward, p)
        backward = aggregate.identity()
        for p in reversed(partials):
            backward = aggregate.combine(backward, p)
        assert forward == backward

    @given(reading_lists, reading_lists)
    @settings(max_examples=60)
    def test_combine_of_groups_equals_combine_of_all(self, left, right):
        aggregate = VarianceAggregate()
        def fold(values):
            total = aggregate.identity()
            for v in values:
                total = aggregate.combine(total, aggregate.components(v))
            return total

        merged = aggregate.combine(fold(left), fold(right))
        assert merged == fold(left + right)

    @given(reading_lists)
    @settings(max_examples=60)
    def test_identity_is_neutral(self, readings):
        aggregate = AverageAggregate()
        total = aggregate.identity()
        for r in readings:
            total = aggregate.combine(total, aggregate.components(r))
        assert aggregate.combine(total, aggregate.identity()) == total


class TestSemantics:
    @given(reading_lists)
    @settings(max_examples=60)
    def test_sum_matches_float_sum(self, readings):
        # Fixed-point quantization error is bounded by N * 0.5 units.
        aggregate = SumAggregate()
        value = aggregate.true_value(readings)
        assert value == pytest.approx(
            sum(readings), abs=len(readings) * 0.005 + 1e-9
        )

    @given(reading_lists)
    @settings(max_examples=60)
    def test_count_is_length(self, readings):
        assert CountAggregate().true_value(readings) == len(readings)

    @given(reading_lists)
    @settings(max_examples=60)
    def test_average_within_min_max(self, readings):
        value = AverageAggregate().true_value(readings)
        assert min(readings) - 0.01 <= value <= max(readings) + 0.01

    @given(reading_lists)
    @settings(max_examples=60)
    def test_variance_non_negative_and_close_to_numpy(self, readings):
        value = VarianceAggregate().true_value(readings)
        assert value >= 0.0
        expected = float(np.var(np.round(np.asarray(readings), 2)))
        assert value == pytest.approx(expected, abs=max(1e-6, expected * 1e-9))


class TestUnionLayout:
    """A batch's composite carries each distinct component once."""

    @given(batches, positive_reading_lists)
    @settings(max_examples=60)
    def test_each_kind_answers_as_its_part_alone(self, batch, readings):
        composite, order, names = build_batch_aggregate(batch, scale=100)
        totals = composite.identity()
        for reading in readings:
            totals = composite.combine(totals, composite.components(reading))
        decoded = composite.finalize_all(totals)
        for query in order:
            alone = build_batch_aggregate([query], scale=100)[0].parts[0]
            assert decoded[names[query]] == alone.true_value(readings)

    @given(batches, positive_reading_lists)
    @settings(max_examples=60)
    def test_equal_keys_mean_equal_components(self, batch, readings):
        composite = build_batch_aggregate(batch, scale=100)[0]
        for reading in readings:
            carried = dict(zip(composite.component_keys, composite.components(reading)))
            for part in composite.parts:
                for key, value in zip(part.component_keys, part.components(reading)):
                    assert carried[key] == value

    @given(batches)
    def test_arity_is_the_number_of_distinct_keys(self, batch):
        composite = build_batch_aggregate(batch, scale=100)[0]
        distinct = {key for part in composite.parts for key in part.component_keys}
        assert composite.arity == len(distinct)
