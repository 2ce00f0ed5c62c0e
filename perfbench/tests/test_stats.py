import statistics

import pytest

from perfbench.stats import Percentile, nearest_rank, p50, spread


def test_nearest_rank_reports_the_sample_and_how_many_lie_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.5) == Percentile(50, 100, 50)
    assert nearest_rank(values, 0.9) == Percentile(90, 100, 10)
    assert nearest_rank(values, 0.99) == Percentile(99, 100, 1)
    assert nearest_rank(values, 1.0) == Percentile(100, 100, 0)


def test_nearest_rank_sorts_and_never_interpolates():
    assert nearest_rank([3.0, 1.0, 2.0], 0.5) == Percentile(2.0, 3, 1)
    assert nearest_rank([1.0, 4.0], 0.5) == Percentile(1.0, 2, 1)
    assert nearest_rank([5.0], 0.99) == Percentile(5.0, 1, 0)


def test_float_products_do_not_push_the_rank_up():
    # 0.9 * 10 == 9.000000000000002; the rank is still 9.
    assert nearest_rank(list(range(10)), 0.9) == Percentile(8, 10, 1)


def test_a_small_sample_has_no_tail_beyond_its_p90():
    assert nearest_rank([1, 2, 3, 4, 5, 6, 7], 0.9) == Percentile(7, 7, 0)


@pytest.mark.parametrize("values, q", [([], 0.5), ([1.0], 0.0), ([1.0], 1.5)])
def test_nearest_rank_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        nearest_rank(values, q)


def test_p50_of_nothing_is_zero():
    assert p50([]) == 0.0
    assert p50([4, 1, 3, 2]) == 2


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [9.0, 9.5, 10.0, 10.5, 11.0, 12.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((third - first) / statistics.median(values))
    assert spread([5.0]) == 0.0
    assert spread([0.0, 0.0]) == 0.0
