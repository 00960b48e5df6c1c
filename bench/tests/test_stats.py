"""The tail-percentile rule: the highest percentile with ten samples beyond it."""

import pytest

import stats


def beyond(p, n):
    return n - 1 - stats.nearest_rank(p, n)


@pytest.mark.parametrize("n", [20, 21, 43, 44, 99, 100, 199, 200, 999, 1000, 5000])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    p = stats.tail_percentile(n)
    assert beyond(p, n) >= 10
    higher = [q for q in stats.TAIL_LADDER if q > p]
    assert all(beyond(q, n) < 10 for q in higher)


def test_known_sample_counts():
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(43) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0


def test_too_few_samples_fall_back_to_the_slowest():
    assert stats.tail_percentile(19) == 100.0
    assert stats.tail(list(range(19))) == (100.0, 18)


def test_cap_holds_the_percentile_when_more_samples_arrive():
    assert stats.tail_percentile(5000, highest=95.0) == 95.0
    assert stats.tail_percentile(150, highest=95.0) == 90.0


def test_tail_value_is_the_nearest_rank_sample():
    values = list(range(1, 101))  # 1..100
    assert stats.tail(values) == (90.0, 90)
    assert stats.tail(values[::-1], highest=75.0) == (75.0, 75)
