"""FrameReplay keeps recorded frames in order and hands them on as arrays.

Scalar ``record`` rows and ``record_many`` array runs may land in one
bucket and kind; the bucket's ``send_many`` must carry them in recording
order, as int64 columns, one call per kind in first-recorded order, and
the transport is flushed once, after the last bucket.
"""

from __future__ import annotations

import numpy as np

from repro.core.replay import EMIT_BUCKET_S, FrameReplay


class _Sim:
    def __init__(self) -> None:
        self.due = []

    def schedule_at(self, time, callback, args=()) -> None:
        self.due.append((time, len(self.due), callback, args))

    def run(self) -> None:
        for _time, _seq, callback, args in sorted(self.due, key=lambda e: e[:2]):
            callback(*args)


class _Stack:
    """Records every ``send_many`` call and flush."""

    def __init__(self) -> None:
        self.sim = _Sim()
        self.calls = []

    def send_many(self, kind, src, dst, size_bytes) -> None:
        columns = (src, dst, size_bytes)
        assert all(c.dtype == np.int64 and c.ndim == 1 for c in columns)
        self.calls.append((kind, *(c.tolist() for c in columns)))

    def flush(self) -> None:
        self.calls.append("flush")


def _array(*values):
    return np.array(values, dtype=np.int64)


def test_rows_keep_recording_order_within_bucket_and_kind():
    stack = _Stack()
    replay = FrameReplay(stack, t0=0.0)
    late = 1.5 * EMIT_BUCKET_S  # bucket 1
    replay.record(0.0, 1, 2, "a", 20)
    at = np.array([0.01, late, 0.02])
    replay.record_many("a", at, _array(3, 9, 4), _array(5, 9, 6), _array(21, 29, 22))
    replay.record(0.03, 7, 8, "b", 30)
    replay.record(0.04, 5, 6, "a", 23)
    replay.schedule()
    stack.sim.run()
    assert stack.calls == [
        ("a", [1, 3, 4, 5], [2, 5, 6, 6], [20, 21, 22, 23]),
        ("b", [7], [8], [30]),
        ("a", [9], [9], [29]),
        "flush",
    ]


def test_expand_hook_adds_rows_after_the_recorded_ones():
    def expand(bucket, frames):
        if bucket == 0:
            rows = frames("a")
            rows[0].append(11)
            rows[1].append(12)
            rows[2].append(40)
            census = frames("c")
            census[0].append(13)
            census[1].append(14)
            census[2].append(41)

    stack = _Stack()
    replay = FrameReplay(stack, t0=0.0, expand=expand)
    at = np.zeros(2)
    replay.record_many("a", at, _array(1, 2), _array(3, 4), _array(20, 21))
    replay.schedule()
    stack.sim.run()
    assert stack.calls == [
        ("a", [1, 2, 11], [3, 4, 12], [20, 21, 40]),
        ("c", [13], [14], [41]),
        "flush",
    ]
