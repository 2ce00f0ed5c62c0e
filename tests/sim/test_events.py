"""Unit tests for event ordering and firing.

An event is a plain ``(time, seq, callback, args)`` heap entry inside the
kernel, so both properties are checked through the scheduling API.
"""


class TestEventOrdering:
    def test_orders_by_time(self, sim):
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(("late", sim.now)))
        sim.schedule_at(1.0, lambda: fired.append(("early", sim.now)))
        sim.run()
        assert fired == [("early", 1.0), ("late", 2.0)]


class TestEventFiring:
    def test_fire_invokes_callback(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(1))
        sim.schedule(0.0, fired.append, (2,))
        sim.run()
        assert fired == [1, 2]
