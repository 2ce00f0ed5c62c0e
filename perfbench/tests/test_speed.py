import signal
import time

import pytest

from perfbench import speed
from perfbench.speed import Speedometer


def _meter(samples):
    meter = Speedometer()
    for at, took in samples:
        meter.at.append(at)
        meter.took.append(took)
    return meter


def test_an_interval_is_its_net_seconds_times_the_mean_speed_inside_it():
    meter = _meter([(0.0, 0.001), (1.0, 0.001), (2.0, 0.002), (5.0, 0.001)])
    seconds, yardsticks = meter.measure(0.5, 3.0)
    assert seconds == pytest.approx(2.5 - 0.003)
    assert yardsticks == pytest.approx(seconds * (1000 + 500) / 2)


def test_a_short_interval_uses_the_latest_sample_before_it():
    meter = _meter([(0.0, 0.002), (1.0, 0.001)])
    seconds, yardsticks = meter.measure(1.2, 1.3)
    assert seconds == pytest.approx(0.1)
    assert yardsticks == pytest.approx(100.0)


def test_the_meter_samples_while_it_runs_and_then_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * speed.SAMPLE_PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(meter.took) >= 3
    assert all(took > 0 for took in meter.took)
    assert meter.at == sorted(meter.at)
    seconds, yardsticks = meter.measure(start, end)
    assert 0 < seconds < end - start
    assert yardsticks > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
