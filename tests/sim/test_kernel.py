"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import KernelStateError, ScheduleInPastError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ScheduleInPastError):
            sim.schedule_at(0.5, lambda: None)

    def test_zero_delay_fires_at_now(self, sim):
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: None))
        sim.run()
        assert sim.stats.fired == 2

    def test_same_time_fifo(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == list("abcde")

    def test_same_instant_fifo_across_entry_points(self, sim):
        order = []

        def batch(label):
            order.append(label)
            return 1

        sim.schedule(1.0, order.append, ("schedule-a",))
        sim.schedule_at(1.0, order.append, ("schedule_at-b",))
        sim.schedule_batch(1.0, batch, ("schedule_batch-c",))
        sim.schedule_callback(1.0, order.append, ("schedule_callback-d",))
        sim.schedule_at(1.0, order.append, ("schedule_at-e",))
        sim.schedule(1.0, order.append, ("schedule-f",))
        sim.run()
        assert order == [
            "schedule-a",
            "schedule_at-b",
            "schedule_batch-c",
            "schedule_callback-d",
            "schedule_at-e",
            "schedule-f",
        ]

    def test_scheduling_returns_nothing(self, sim):
        assert sim.schedule(1.0, lambda: None) is None
        assert sim.schedule_at(1.0, lambda: None) is None
        assert sim.schedule_batch(1.0, lambda: None) is None
        assert sim.schedule_callback(1.0, lambda: None) is None


class TestRun:
    def test_run_until_leaves_future_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 5.0

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_is_not_reentrant(self, sim):
        failures = []

        def reenter():
            try:
                sim.run()
            except KernelStateError:
                failures.append(True)

        sim.schedule(1.0, reenter)
        sim.run()
        assert failures == [True]

    def test_run_until_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(KernelStateError):
            sim.run(until=1.0)

    def test_events_scheduled_during_run_fire(self, sim):
        order = []
        sim.schedule(
            1.0,
            lambda: (order.append("outer"), sim.schedule(1.0, lambda: order.append("inner")))[0],
        )
        sim.run()
        assert order == ["outer", "inner"]


class TestStepAndDrain:
    """Moving the clock forward and emptying the queue."""

    def test_advance_moves_clock(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0
        with pytest.raises(KernelStateError):
            sim.run(until=2.0)

    def test_discard_pending_drops_everything_unfired(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(3.0, fired.append, args=(3,))
        assert sim.discard_pending() == 3
        assert sim.discard_pending() == 0
        sim.run()
        assert fired == []
        assert sim.stats.cancelled == 3
        assert sim.stats.fired == 0

    def test_discard_pending_keeps_clock_and_future_scheduling(self, sim):
        sim.run(until=5.0)
        sim.schedule(1.0, lambda: None)
        sim.discard_pending()
        assert sim.now == 5.0
        fired = []
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["after"]

    def test_discard_pending_refused_mid_callback(self, sim):
        errors = []

        def inside():
            try:
                sim.discard_pending()
            except KernelStateError as error:
                errors.append(error)

        sim.schedule(1.0, inside)
        sim.run()
        assert len(errors) == 1


class TestStats:
    def test_counters_track_activity(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        sim.discard_pending()
        assert sim.stats.scheduled == 2
        assert sim.stats.fired == 1
        assert sim.stats.cancelled == 1
        assert sim.stats.max_queue_len == 2
        snap = sim.stats.snapshot()
        assert snap["scheduled"] == 2


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        a = Simulator(seed=9).rng.stream("x").random(5)
        b = Simulator(seed=9).rng.stream("x").random(5)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = Simulator(seed=9).rng.stream("x").random(5)
        b = Simulator(seed=10).rng.stream("x").random(5)
        assert not (a == b).all()


class TestScheduleWithArgs:
    """Bound-method + payload scheduling (the closure-free hot path)."""

    def test_callback_receives_payload(self):
        from repro.sim.kernel import Simulator

        sim = Simulator(seed=0)
        got = []
        sim.schedule(1.0, got.append, args=("payload",))
        sim.schedule_at(2.0, got.extend, args=([1, 2],))
        sim.run()
        assert got == ["payload", 1, 2]

    def test_argless_default_unchanged(self):
        from repro.sim.kernel import Simulator

        sim = Simulator(seed=0)
        fired = []
        sim.schedule(0.5, lambda: fired.append(True))
        sim.run()
        assert fired == [True]


class TestScheduleBatch:
    """Macro-events that stand in for N logical events must keep the
    scheduled/fired counters honest: one heap entry, N accounted."""

    def test_resolver_count_credits_extra_events(self, sim):
        def resolver():
            return 5  # this macro-event stood in for 5 logical events

        sim.schedule_batch(1.0, resolver)
        sim.run()
        # 1 scheduled at the heap + 4 extras; fired likewise 1 + 4.
        assert sim.stats.scheduled == 5
        assert sim.stats.fired == 5

    def test_resolver_returning_none_or_small_counts_plainly(self, sim):
        sim.schedule_batch(1.0, lambda: None)
        sim.schedule_batch(2.0, lambda: 0)
        sim.schedule_batch(3.0, lambda: 1)
        sim.run()
        # No extras: each macro-event counts as exactly one event.
        assert sim.stats.scheduled == 3
        assert sim.stats.fired == 3

    def test_resolver_receives_args_and_fires_at_time(self, sim):
        got = []

        def resolver(tag):
            got.append((tag, sim.now))
            return len(got)

        sim.schedule_batch(2.5, resolver, args=("batch",))
        sim.run()
        assert got == [("batch", 2.5)]

    def test_nan_delay_rejected(self, sim):
        import pytest as _pytest

        from repro.errors import SimulationError

        with _pytest.raises(SimulationError):
            sim.schedule_batch(float("nan"), lambda: None)

    def test_negative_delay_rejected(self, sim):
        import pytest as _pytest

        from repro.errors import SimulationError

        with _pytest.raises(SimulationError):
            sim.schedule_batch(-1.0, lambda: None)


class TestReservedKeys:
    """``reserve``/``claim``: many logical events behind one heap entry,
    fired and counted exactly as separately scheduled events would be."""

    @staticmethod
    def sweep_over(sim, keys, log):
        """A callback firing ``keys[index:]`` in place while they are due."""

        def sweep(index):
            while True:
                log.append(("key", index, sim.now))
                index += 1
                if index == len(keys):
                    return
                time, seq = keys[index]
                if not sim.claim(time, seq):
                    sim.schedule_at(time, sweep, (index,), seq)
                    return

        return sweep

    def test_reserve_counts_like_separate_schedules(self, sim):
        sim.schedule(5.0, lambda: None)
        first = sim.reserve(3)
        assert sim.stats.scheduled == 4
        assert sim.stats.max_queue_len == 4
        sim.schedule_at(1.0, lambda: None, (), first)
        assert sim.stats.scheduled == 4  # a placed key is not a new event
        assert sim.stats.max_queue_len == 4

    def test_reserved_seqs_are_consecutive_and_skipped_by_later_draws(self, sim):
        log = []
        first = sim.reserve(2)
        sim.schedule(1.0, log.append, ("after",))
        sim.schedule_at(1.0, log.append, ("second",), first + 1)
        sim.schedule_at(1.0, log.append, ("first",), first)
        sim.run()
        assert log == ["first", "second", "after"]

    def test_claimed_keys_interleave_with_heap_entries(self, sim):
        log = []
        first = sim.reserve(3)
        keys = [(1.0, first), (2.0, first + 1), (4.0, first + 2)]
        sim.schedule(3.0, log.append, (("timer", 3.0),))
        sim.schedule_at(1.0, self.sweep_over(sim, keys, log), (0,), first)
        sim.run()
        assert log == [
            ("key", 0, 1.0),
            ("key", 1, 2.0),
            ("timer", 3.0),
            ("key", 2, 4.0),
        ]
        assert sim.stats.scheduled == sim.stats.fired == 4

    def test_claim_many_claims_the_due_prefix(self, sim):
        import numpy as np

        first = sim.reserve(4)
        times = np.array([1.0, 2.0, 2.0, 3.0])
        seqs = np.arange(first, first + 4)
        sim.schedule(2.0, lambda: None)  # a later seq: ties at 2.0 go first
        seen = []

        def sweep():
            seen.append(sim.claim_many(times[1:], seqs[1:]))
            seen.append(sim.now)

        sim.schedule_at(1.0, sweep, (), first)
        sim.run()
        assert seen == [2, 2.0]
        assert sim.stats.fired == 4  # placed key, two claimed, the timer
        assert sim.stats.scheduled == 5  # the key at 3.0 stays reserved

    def test_claim_many_respects_the_run_window(self, sim):
        import numpy as np

        first = sim.reserve(3)
        times = np.array([1.0, 1.2, 1.7])
        seqs = np.arange(first, first + 3)
        seen = []
        sim.schedule_at(
            1.0, lambda: seen.append(sim.claim_many(times[1:], seqs[1:])), (), first
        )
        sim.run(until=1.5)
        assert seen == [1]
        assert sim.now == 1.5

    def test_claim_respects_the_run_window(self, sim):
        log = []
        first = sim.reserve(2)
        keys = [(1.0, first), (2.0, first + 1)]
        sim.schedule_at(1.0, self.sweep_over(sim, keys, log), (0,), first)
        sim.run(until=1.5)
        assert log == [("key", 0, 1.0)]
        assert sim.now == 1.5
        assert sim.stats.fired == 1
        sim.run()
        assert log[-1] == ("key", 1, 2.0)
        assert sim.stats.fired == 2

    def test_discard_counts_reserved_keys_behind_one_entry(self, sim):
        log = []
        first = sim.reserve(3)
        keys = [(1.0, first), (2.0, first + 1), (3.0, first + 2)]
        sim.schedule_at(1.0, self.sweep_over(sim, keys, log), (0,), first)
        sim.run(until=0.5)
        assert sim.discard_pending() == 3
        assert sim.stats.cancelled == 3
        assert sim.discard_pending() == 0
        sim.run()
        assert log == []

    def test_queue_length_counts_pending_reserved_keys(self, sim):
        first = sim.reserve(3)
        keys = [(1.0, first), (2.0, first + 1), (3.0, first + 2)]
        sim.schedule_at(1.0, self.sweep_over(sim, keys, []), (0,), first)
        sim.run(until=1.5)  # one key fired, two pending behind one entry
        for delay in (1.0, 1.0):
            sim.schedule(delay, lambda: None)
        assert sim.stats.max_queue_len == 4
        sim.schedule(1.0, lambda: None)
        assert sim.stats.max_queue_len == 5
