import asyncio
import time

import pytest

from perfbench.workloads import open_loop


def _run(rate, count, send):
    asyncio.run(open_loop(rate, count, send))


def test_due_times_follow_the_rate_from_the_first_request():
    seen = {}

    async def send(index, due):
        seen[index] = (due, time.perf_counter())

    _run(200.0, 8, send)
    dues = [seen[index][0] for index in range(8)]
    gaps = [later - earlier for earlier, later in zip(dues, dues[1:])]
    assert gaps == pytest.approx([1 / 200.0] * 7)
    assert all(started >= due - 1e-3 for due, started in seen.values())


def test_slow_answers_do_not_hold_back_later_requests():
    started = {}

    async def send(index, due):
        started[index] = time.perf_counter()
        await asyncio.sleep(0.3)  # a slow answer, awaited

    begin = time.perf_counter()
    _run(100.0, 5, send)
    # Open loop: all five start within ~40 ms, not 5 x 0.3 s apart.
    assert max(started.values()) - begin < 0.2


def test_a_stalled_loop_shows_up_as_lag_from_the_due_time():
    lag = {}

    async def send(index, due):
        lag[index] = time.perf_counter() - due
        if index == 1:
            time.sleep(0.2)  # blocks the event loop

    _run(100.0, 6, send)
    # Requests 2..5 were due 10..40 ms after request 1 but could only
    # start once the stall ended: their lateness counts from their due time.
    assert all(lag[index] > 0.1 for index in range(2, 6))
    assert lag[0] < 0.1
