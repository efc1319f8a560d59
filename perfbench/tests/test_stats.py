"""The order statistics the benchmark reports."""

import statistics

import pytest

import stats


def test_hd_median_of_symmetric_samples_is_the_centre():
    assert stats.hd_median([7.0]) == pytest.approx(7.0)
    assert stats.hd_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert stats.hd_median([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)


def test_hd_median_weights_sum_to_one():
    assert stats.hd_median([5.0] * 9) == pytest.approx(5.0)


def test_hd_median_moves_smoothly_across_a_gap():
    # a plain median jumps from 0.04 to 0.08 when one middle value moves
    # across the gap; the estimate moves by a fraction of that
    low = [0.001, 0.002, 0.03, 0.04, 0.08, 0.09, 0.3]
    high = [0.001, 0.002, 0.03, 0.08, 0.08, 0.09, 0.3]
    jump = statistics.median(high) - statistics.median(low)
    assert jump == pytest.approx(0.04)
    assert 0 < stats.hd_median(high) - stats.hd_median(low) < jump / 2


def test_median_of_no_values_is_refused():
    with pytest.raises(ValueError):
        stats.hd_median([])
