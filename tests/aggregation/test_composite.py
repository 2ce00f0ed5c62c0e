"""Tests for composite (multi-query) aggregates."""

import numpy as np
import pytest

from repro.aggregation.functions import (
    AverageAggregate,
    CompositeAggregate,
    CountAggregate,
    FixedPointCodec,
    SumAggregate,
    VarianceAggregate,
    make_aggregate,
)
from repro.errors import AggregationError


class TestAlgebra:
    def test_arity_counts_distinct_components(self):
        composite = CompositeAggregate([SumAggregate(), VarianceAggregate()])
        # VARIANCE's (count, sum, sum of squares) already holds SUM's sum.
        assert composite.arity == 3
        assert composite.component_keys == (
            ("units", 1),
            ("units", 0),
            ("units", 2),
        )

    def test_shared_components_ride_once(self):
        composite = CompositeAggregate([AverageAggregate(), CountAggregate()])
        assert composite.components(2.5) == (250, 1)
        assert composite.finalize_all(
            composite.combine(composite.components(2.5), composite.components(3.5))
        ) == {"average": pytest.approx(3.0), "count": 2.0}

    def test_components_concatenate(self):
        composite = CompositeAggregate([SumAggregate(), CountAggregate()])
        assert composite.components(2.5) == (250, 1)

    def test_finalize_returns_first_part(self):
        composite = CompositeAggregate([SumAggregate(), CountAggregate()])
        totals = composite.true_value([1.0, 2.0, 3.0])
        assert totals == pytest.approx(6.0)

    def test_finalize_all_decodes_everything(self):
        readings = [10.0, 20.0, 30.0, 40.0]
        composite = CompositeAggregate(
            [SumAggregate(), CountAggregate(), VarianceAggregate()]
        )
        totals = composite.identity()
        for reading in readings:
            totals = composite.combine(totals, composite.components(reading))
        results = composite.finalize_all(totals)
        assert results["sum"] == pytest.approx(100.0)
        assert results["count"] == 4.0
        assert results["variance"] == pytest.approx(float(np.var(readings)))

    def test_name_joins_parts(self):
        composite = CompositeAggregate([SumAggregate(), AverageAggregate()])
        assert composite.name == "sum+average"

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            CompositeAggregate([])

    def test_mixed_scales_rejected(self):
        with pytest.raises(AggregationError):
            CompositeAggregate(
                [
                    SumAggregate(FixedPointCodec(scale=100)),
                    SumAggregate(FixedPointCodec(scale=10)),
                ]
            )


class TestFactorySyntax:
    def test_plus_syntax(self):
        aggregate = make_aggregate("sum+count+variance")
        assert isinstance(aggregate, CompositeAggregate)
        assert aggregate.arity == 3

    def test_whitespace_tolerated(self):
        aggregate = make_aggregate("sum + count")
        assert aggregate.name == "sum+count"

    def test_unknown_constituent_rejected(self):
        with pytest.raises(AggregationError):
            make_aggregate("sum+median")


class TestEndToEnd:
    def test_protocol_round_carries_composite(self):
        """One iCPDA round delivers SUM, COUNT and VARIANCE at once."""
        from repro.core.config import IcpdaConfig
        from repro.core.protocol import IcpdaProtocol
        from repro.topology.deploy import uniform_deployment

        deployment = uniform_deployment(
            90, field_size=240.0, radio_range=50.0,
            rng=np.random.default_rng(6),
        )
        config = IcpdaConfig(aggregate_name="sum+count+variance")
        protocol = IcpdaProtocol(deployment, config, seed=6)
        protocol.setup()
        readings = {i: 10.0 + (i % 7) for i in range(1, 90)}
        result = protocol.run_round(readings)
        assert result.verdict.accepted
        stats = protocol.aggregate.finalize_all(result.raw_totals)
        assert stats["count"] == result.contributors
        assert stats["sum"] == pytest.approx(result.value)
        assert 0 <= stats["variance"] < 10.0
