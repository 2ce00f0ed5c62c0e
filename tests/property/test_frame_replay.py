"""FrameReplay emits what the bucket-dict replay it replaced emitted.

The replay keeps recorded batches whole and plans the emission with
array operations. The reference below is the earlier design: one dict of
per-kind frame lists per bucket, ``record_many`` split into per-bucket
runs as it arrives. On drawn interleavings of ``record``,
``record_many`` and ``expand`` rows, both must make the same
``send_many`` calls (instant, kind and columns) and flush once, after
the last bucket. Instants come from a coarse grid, so many rows share a
bucket, and kinds from a small set, so kinds recur within a bucket.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import replay
from repro.core.replay import EMIT_BUCKET_S, FrameReplay

KINDS = ("a", "b", "c", "d")
T0 = 3.0


class _BucketDictReplay:
    """The replay as it was: per bucket, kind -> (src, dst, size lists,
    array runs), rows closed into runs when a batch lands in the group."""

    def __init__(self, stack, t0, expand=None):
        self._stack = stack
        self._t0 = t0
        self._expand = expand
        self._buckets = {}
        self._last = None

    def bucket_of(self, at):
        return math.floor((at - self._t0) / EMIT_BUCKET_S)

    def _frames(self, bucket, kind):
        by_kind = self._buckets.setdefault(bucket, {})
        frames = by_kind.get(kind)
        if frames is None:
            frames = by_kind[kind] = ([], [], [], [])
        return frames

    @staticmethod
    def _close(frames):
        frames[3].append(tuple(np.array(rows, dtype=np.int64) for rows in frames[:3]))
        for rows in frames[:3]:
            rows.clear()

    def record(self, at, src, dst, kind, size):
        frames = self._frames(self.bucket_of(at), kind)
        frames[0].append(src)
        frames[1].append(dst)
        frames[2].append(size)

    def record_many(self, kind, at, src, dst, size):
        if not len(at):
            return
        buckets = np.floor((at - self._t0) / EMIT_BUCKET_S).astype(np.int64)
        order = np.argsort(buckets, kind="stable")
        buckets = buckets[order]
        columns = [np.asarray(c, dtype=np.int64)[order] for c in (src, dst, size)]
        cuts = (np.flatnonzero(np.diff(buckets)) + 1).tolist()
        for start, end in zip([0] + cuts, cuts + [len(order)]):
            frames = self._frames(int(buckets[start]), kind)
            if frames[0]:
                self._close(frames)
            frames[3].append(tuple(column[start:end] for column in columns))

    def schedule(self, extra_buckets=()):
        buckets = sorted(set(self._buckets) | set(extra_buckets))
        self._last = buckets[-1] if buckets else None
        for bucket in buckets:
            self._stack.sim.schedule_at(
                self._t0 + bucket * EMIT_BUCKET_S, partial(self._emit, bucket)
            )

    def _emit(self, bucket):
        if self._expand is not None:
            self._expand(bucket, partial(self._frames, bucket))
        for kind, frames in self._buckets.pop(bucket, {}).items():
            if frames[0] or not frames[3]:
                self._close(frames)
            chunks = frames[3]
            columns = (
                chunks[0]
                if len(chunks) == 1
                else tuple(np.concatenate(c) for c in zip(*chunks))
            )
            self._stack.send_many(kind, *columns)
        if bucket == self._last:
            self._stack.flush()


class _Sim:
    def __init__(self):
        self.now = 0.0
        self.due = []

    def schedule_at(self, time, callback, args=()):
        self.due.append((time, len(self.due), callback, args))

    def run(self):
        for time, _seq, callback, args in sorted(self.due, key=lambda e: e[:2]):
            self.now = time
            callback(*args)


class _Stack:
    def __init__(self):
        self.sim = _Sim()
        self.calls = []

    def send_many(self, kind, src, dst, size_bytes):
        columns = (src, dst, size_bytes)
        assert all(c.dtype == np.int64 and c.ndim == 1 for c in columns)
        self.calls.append((self.sim.now, kind, *(c.tolist() for c in columns)))

    def flush(self):
        self.calls.append((self.sim.now, "flush"))


instants = st.integers(0, 40).map(lambda k: T0 + k * 0.013)
rows = st.tuples(instants, st.integers(0, 99), st.integers(0, 99), st.integers(16, 90))
kinds = st.sampled_from(KINDS)
ops = st.one_of(
    st.tuples(st.just("record"), kinds, rows),
    st.tuples(st.just("record_many"), kinds, st.lists(rows, max_size=12)),
)
#: bucket -> [(kind, rows)] the expand hook adds (rows may be empty).
expansions = st.dictionaries(
    st.integers(0, 12),
    st.lists(
        st.tuples(st.sampled_from(KINDS + ("e",)), st.lists(rows, max_size=3)),
        max_size=3,
    ),
    max_size=4,
)


def _run(cls, script, added, use_hook):
    def expand(bucket, frames):
        for kind, extra in added.get(bucket, ()):
            lists = frames(kind)
            for _at, src, dst, size in extra:
                lists[0].append(src)
                lists[1].append(dst)
                lists[2].append(size)

    stack = _Stack()
    target = cls(stack, T0, expand=expand if use_hook else None)
    for op, kind, payload in script:
        if op == "record":
            at, src, dst, size = payload
            target.record(at, src, dst, kind, size)
        else:
            columns = list(zip(*payload)) or [(), (), (), ()]
            target.record_many(
                kind,
                np.array(columns[0], dtype=np.float64),
                *(np.array(c, dtype=np.int64) for c in columns[1:]),
            )
    target.schedule(added if use_hook else ())
    stack.sim.run()
    return stack.calls


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ops, max_size=40),
    expansions,
    st.booleans(),
    st.sampled_from((4, 1 << 12)),
)
def test_replay_matches_the_bucket_dict_replay(script, added, use_hook, stage_rows):
    original = replay._STAGE_ROWS
    replay._STAGE_ROWS = stage_rows  # a small bound closes staged rows mid-run
    try:
        got = _run(FrameReplay, script, added, use_hook)
    finally:
        replay._STAGE_ROWS = original
    assert got == _run(_BucketDictReplay, script, added, use_hook)
