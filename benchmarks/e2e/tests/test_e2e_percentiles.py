"""Percentile selection: nearest rank, refused on too small a sample."""

import pytest

from harness.measure import TooFewSamples, percentile, percentile_or_zero


def test_p95_is_refused_under_200_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 0.95)
    assert percentile(list(range(1, 201)), 0.95) == 190


def test_p50_and_p99_floors():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 0.50)
    assert percentile(list(range(1, 21)), 0.50) == 10
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1, 1001)), 0.99) == 990


def test_nearest_rank_ignores_input_order():
    values = [float(v) for v in range(1, 401)]
    assert percentile(values[::-1], 0.95) == percentile(values, 0.95) == 380.0


def test_per_program_rows_report_zero_instead():
    assert percentile_or_zero([1.0] * 50, 0.95) == 0.0
    assert percentile_or_zero([2.0] * 200, 0.95) == 2.0
