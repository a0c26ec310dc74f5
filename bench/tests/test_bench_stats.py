import pytest

from stats import MIN_BEYOND, median, percentile, samples_beyond


@pytest.mark.parametrize("n, q", [(100, 90), (200, 95), (256, 95), (300, 90), (1000, 99)])
def test_reported_percentile_has_ten_samples_beyond(n, q):
    samples = list(range(n))
    value = percentile(samples, q)
    assert value is not None
    assert sum(1 for s in samples if s > value) >= MIN_BEYOND


@pytest.mark.parametrize("n, q", [(99, 90), (199, 95), (50, 90), (0, 50)])
def test_percentile_refused_with_fewer_than_ten_beyond(n, q):
    assert percentile(list(range(n)), q) is None


def test_nearest_rank_and_median():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40  # 200 samples, 40 of each
    assert percentile(samples, 90) == 5.0
    assert percentile(samples, 50) == 3.0
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5
    assert median([]) is None


def test_samples_beyond_counts_strictly_above_the_rank():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(256, 95) == 12
