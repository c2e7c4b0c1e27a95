"""The host clock's arithmetic on made-up bursts, and a live one."""

import time

import pytest

from hostclock import GAP_S, REFERENCE_S, HostClock


def clock_of(times, speeds):
    """A clock whose burst at each time saw the host at ``speed`` of the
    reference."""
    clock = HostClock.__new__(HostClock)
    clock.cpu_s, clock._times, clock._reference = 0.0, [], []
    for t, speed in zip(times, speeds):
        clock.sample(REFERENCE_S / speed, t)
    return clock


def test_on_the_reference_host_reference_seconds_are_wall_seconds():
    clock = clock_of([10.0, 10.05, 10.1, 10.2], [1.0] * 4)
    assert clock.seconds(10.0, 10.2) == pytest.approx(0.2)
    assert clock.seconds(10.07, 10.15) == pytest.approx(0.08)


def test_a_slowed_host_shortens_the_interval_it_slowed():
    # the burst at 2.0 ran at three quarters of the reference speed, so
    # the second before it counts three quarters
    clock = clock_of([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.75, 1.0])
    assert clock.seconds(0.0, 3.0) == pytest.approx(2.75)
    assert clock.seconds(1.5, 2.5) == pytest.approx(0.375 + 0.5)


def test_the_first_and_last_speeds_hold_outside_the_bursts():
    clock = clock_of([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
    assert clock.seconds(-1.0, 0.0) == pytest.approx(0.5)
    assert clock.seconds(2.0, 3.0) == pytest.approx(1.0)


def test_bursts_are_taken_when_due_and_their_cpu_is_kept_apart():
    clock = HostClock()
    assert len(clock._times) == 1 and clock.cpu_s > 0
    clock.tick(clock._times[-1] + GAP_S / 2)      # too early
    assert len(clock._times) == 1
    time.sleep(GAP_S)
    start = time.perf_counter()
    clock.tick(start)
    assert len(clock._times) == 2
    assert 0.2 < clock.seconds(clock._times[0], start) / GAP_S < 5.0
