import threading

import pytest

from perfbench import tracing
from perfbench.tracing import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", fake)
    return fake


def test_self_time_is_duration_minus_child_coverage(clock):
    tracer = Tracer(prefix="w")
    send = tracer.timed("net.send", lambda: clock.advance(2.0))

    def handle():
        clock.advance(1.0)
        send()
        clock.advance(0.5)

    handler = tracer.timed("proto.handler", handle)
    with tracer.span("round", "round.other", "w/round/0"):
        clock.advance(0.25)
        handler()
        with tracer.span("phase.exchange", "proto.phase"):
            clock.advance(3.0)
            send()

    phase, round_span = tracer.spans
    assert round_span["id"] == "w/round/0" and round_span["parent"] is None
    assert round_span["end"] - round_span["start"] == pytest.approx(8.75)
    assert round_span["self"] == pytest.approx(
        {"round.other": 0.25, "proto.handler": 1.5, "net.send": 4.0, "proto.phase": 3.0}
    )
    assert sum(round_span["self"].values()) == pytest.approx(8.75)
    assert phase["parent"] == "w/round/0"
    assert phase["id"].startswith("w/phase.exchange/")
    assert phase["self"] == pytest.approx({"proto.phase": 3.0, "net.send": 2.0})


def test_a_raising_call_still_closes_its_span(clock):
    tracer = Tracer()

    def boom():
        clock.advance(1.0)
        raise RuntimeError("boom")

    traced = tracer.timed("net.resolve", boom)
    with tracer.span("round", "round.other"):
        with pytest.raises(RuntimeError):
            traced()
        clock.advance(1.0)
    (span,) = tracer.spans
    assert span["self"] == pytest.approx({"net.resolve": 1.0, "round.other": 1.0})
    assert tracer._state().stack == []


def test_each_thread_keeps_its_own_span_stack(clock):
    tracer = Tracer()
    with tracer.span("episode", "bench"):
        worker = threading.Thread(target=lambda: tracer.spanned("round", "round.other", lambda: None)())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    round_span = tracer.spans_named("round")[0]
    assert round_span["parent"] is None  # not the other thread's episode


def test_tracing_wraps_entry_points_and_restores_them():
    from repro.core import intracluster, shares
    from repro.core.intracluster import IntraClusterExchange
    from repro.sim.kernel import Simulator

    originals = (
        Simulator.schedule,
        Simulator.run,
        IntraClusterExchange.run,
        shares.generate_share_bundles,
        intracluster.generate_share_bundles,
    )
    with tracing.tracing(Tracer()):
        assert Simulator.schedule is not originals[0]
        assert Simulator.run is not originals[1]
        assert IntraClusterExchange.run is not originals[2]
        assert shares.generate_share_bundles is not originals[3]
        assert intracluster.generate_share_bundles is not originals[4]
    assert (
        Simulator.schedule,
        Simulator.run,
        IntraClusterExchange.run,
        shares.generate_share_bundles,
        intracluster.generate_share_bundles,
    ) == originals


def test_traced_kernel_attributes_callbacks_by_their_module():
    from repro.sim.kernel import Simulator

    tracer = Tracer()
    fired = []
    with tracing.tracing(tracer):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule_callback(2.0, fired.append, ("x",))
        with tracer.span("round", "round.other"):
            sim.run()
    assert fired == [1.0, "x"]
    (span,) = tracer.spans
    assert set(span["self"]) <= {"kernel", "proto.handler", "round.other"}
    assert "kernel" in span["self"] and "proto.handler" in span["self"]
