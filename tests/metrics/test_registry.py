"""Unit tests for the metrics registry (merge, namespacing, lifecycle)."""

import pytest

from repro.errors import ReproError
from repro.metrics.registry import MetricsRegistry


class TestRegistration:
    def test_register_and_contains(self):
        registry = MetricsRegistry()
        registry.register("kernel", lambda: {"fired": 1})
        assert "kernel" in registry
        assert len(registry) == 1
        assert list(registry.nested()) == ["kernel"]

    def test_duplicate_namespace_rejected(self):
        registry = MetricsRegistry()
        registry.register("medium", lambda: {})
        with pytest.raises(ReproError):
            registry.register("medium", lambda: {})

    def test_duplicate_with_replace_wins(self):
        registry = MetricsRegistry()
        registry.register("medium", lambda: {"v": 1})
        registry.register("medium", lambda: {"v": 2}, replace=True)
        assert registry.snapshot() == {"medium.v": 2}

    def test_invalid_namespace_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", ".kernel", "kernel."):
            with pytest.raises(ReproError):
                registry.register(bad, lambda: {})


class TestSnapshot:
    def test_merged_and_namespaced(self):
        registry = MetricsRegistry()
        registry.register("kernel", lambda: {"fired": 10, "scheduled": 12})
        registry.register("counters", lambda: {"bytes": 480, "messages": 6})
        assert registry.snapshot() == {
            "kernel.fired": 10,
            "kernel.scheduled": 12,
            "counters.bytes": 480,
            "counters.messages": 6,
        }

    def test_nested_mappings_flatten_with_dots(self):
        registry = MetricsRegistry()
        registry.register("energy", lambda: {"per_node": {3: 0.5, 7: 0.25}})
        snap = registry.snapshot()
        assert snap["energy.per_node.3"] == 0.5
        assert snap["energy.per_node.7"] == 0.25

    def test_providers_called_lazily(self):
        counter = {"n": 0}

        def provider():
            counter["n"] += 1
            return {"n": counter["n"]}

        registry = MetricsRegistry()
        registry.register("live", provider)
        assert counter["n"] == 0
        assert registry.snapshot()["live.n"] == 1
        assert registry.snapshot()["live.n"] == 2

    def test_non_mapping_provider_rejected(self):
        registry = MetricsRegistry()
        registry.register("bad", lambda: 42)
        with pytest.raises(ReproError):
            registry.snapshot()

    def test_nested_view_keeps_namespaces_separate(self):
        registry = MetricsRegistry()
        registry.register("a", lambda: {"x": 1})
        registry.register("b", lambda: {"x": 2})
        assert registry.nested() == {"a": {"x": 1}, "b": {"x": 2}}


class TestSimulatorIntegration:
    def test_kernel_registers_its_stats(self):
        from repro.sim.kernel import Simulator

        sim = Simulator(seed=3)
        sim.schedule(1.0, lambda: None)
        sim.run()
        snap = sim.metrics.snapshot()
        assert snap["kernel.scheduled"] == 1
        assert snap["kernel.fired"] == 1

    def test_network_stack_registers_all_namespaces(self):
        from repro.net.stack import NetworkStack
        from repro.sim.kernel import Simulator
        from tests.conftest import make_line_deployment

        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(3))
        stack.send(0, 1, "x", size_bytes=40)
        sim.run()
        snap = sim.metrics.snapshot()
        assert snap["counters.messages"] == 1
        assert snap["counters.bytes"] == 40
        assert snap["medium.transmissions"] == 1
        assert snap["mac.sent"] == 1
        assert snap["energy.total_j"] > 0.0
        for namespace in ("kernel", "medium", "counters", "energy", "mac"):
            assert namespace in sim.metrics
