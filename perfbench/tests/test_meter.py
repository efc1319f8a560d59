"""Reference seconds from the speed meter's stamps."""

import os
from time import monotonic, process_time

import pytest

import meter


def _clock(pairs):
    return meter.Clock([x for pair in pairs for x in pair])


def test_units_and_cpu_count_the_share_of_the_unit_under_way():
    clock = _clock([(10.0, 1.0), (10.5, 1.25), (11.5, 1.5), (12.0, 1.75)])
    assert clock._at(10.25) == pytest.approx((0.5, 1.125))
    assert clock._at(11.0) == pytest.approx((1.5, 1.375))


def test_reference_seconds_follow_the_speed_of_the_core():
    # the meter's units took 2 ms of its CPU time until t = 1 and 1 ms after,
    # so a CPU second of a measured process is worth twice as much there
    pairs = [(i * 0.004, i * 0.002) for i in range(251)]
    pairs += [(1.0 + i * 0.002, 0.5 + i * 0.001) for i in range(1, 501)]
    clock = _clock(pairs)
    slow = clock.seconds(0.1, 0.2, 0.7)
    fast = clock.seconds(0.1, 1.2, 1.7)
    assert slow == pytest.approx(0.1 * 500 / meter.UNITS_PER_S)
    assert fast == pytest.approx(2 * slow)


def test_an_interval_the_meter_did_not_cover_is_refused():
    clock = _clock([(10.0, 1.0), (10.5, 1.2), (11.0, 1.4)])
    with pytest.raises(meter.MeterError):
        clock.seconds(0.1, 9.0, 10.2)
    with pytest.raises(meter.MeterError):
        clock.seconds(0.1, 10.2, 11.0)


def test_the_meter_covers_the_block_on_the_core_it_inherits_and_stops():
    with meter.Meter() as speed:
        assert os.sched_getaffinity(speed.proc.pid) == os.sched_getaffinity(0)
        start, cpu = monotonic(), process_time()
        while monotonic() - start < 0.2:
            pass
        end = monotonic()
    assert speed.proc.returncode == 0
    assert 0 < speed.clock.seconds(process_time() - cpu, start, end)
