"""Failure-injection tests: crash-stopped nodes mid-protocol.

The protocol must degrade into *measured loss* — never wrong data, never
a crash of the simulation itself — regardless of which role the dead
node held.
"""

import numpy as np
import pytest

from repro.core.config import IcpdaConfig
from repro.core.protocol import IcpdaProtocol
from repro.core.results import Verdict
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment
from tests.conftest import make_line_deployment


@pytest.fixture(scope="module")
def deployment():
    return uniform_deployment(
        120, field_size=260.0, radio_range=50.0, rng=np.random.default_rng(77)
    )


@pytest.fixture(scope="module")
def readings(deployment):
    return {i: 10.0 for i in range(1, deployment.num_nodes)}


class TestMediumKill:
    def test_dead_node_transmits_nothing(self):
        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(3))
        got = []
        stack.register_handler(1, "x", lambda _node, p: got.append(p))
        stack.fail_node(0)
        stack.send(0, 1, "x")
        sim.run()
        assert got == []
        assert stack.is_failed(0)

    def test_dead_node_receives_nothing(self):
        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(3))
        got = []
        stack.register_handler(1, "x", lambda _node, p: got.append(p))
        stack.fail_node(1)
        stack.send(0, 1, "x")
        sim.run()
        assert got == []

    def test_other_nodes_unaffected(self):
        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(3))
        got = []
        stack.register_handler(2, "x", lambda _node, p: got.append(p))
        stack.fail_node(0)
        stack.send(1, 2, "x")
        sim.run()
        assert len(got) == 1

    def test_unknown_node_rejected(self):
        from repro.errors import SimulationError

        sim = Simulator(seed=1)
        stack = NetworkStack(sim, make_line_deployment(3))
        with pytest.raises(SimulationError):
            stack.fail_node(99)


class TestProtocolUnderCrashes:
    def _run_with_crash(self, deployment, readings, victims, crash_at, seed=77):
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=seed)
        protocol.setup()
        for victim in victims:
            protocol.sim.schedule(
                crash_at, lambda v=victim: protocol.stack.fail_node(v)
            )
        return protocol.run_round(readings), protocol

    def test_crash_during_formation_is_absorbed(self, deployment, readings):
        """Nodes dying in the clustering window just don't participate."""
        result, _ = self._run_with_crash(
            deployment, readings, victims=[5, 17, 42], crash_at=1.0
        )
        assert result.verdict in (Verdict.ACCEPTED, Verdict.REJECTED_MISMATCH)
        assert result.contributors < len(readings)

    def test_crash_during_exchange_aborts_cluster_not_round(
        self, deployment, readings
    ):
        """A member dying mid-exchange stops only its own cluster."""
        # Crash a batch of nodes as share exchange begins (~t=12s after
        # formation windows).
        result, protocol = self._run_with_crash(
            deployment, readings, victims=[10, 20, 30], crash_at=13.0
        )
        assert result.verdict in (Verdict.ACCEPTED, Verdict.REJECTED_MISMATCH)
        assert protocol.sim.stats.fired > 0

    def test_mass_failure_yields_insufficient_or_reject(
        self, deployment, readings
    ):
        """Killing most of the network cannot produce a confidently
        ACCEPTED-but-wrong answer: either the round is rejected, or the
        accepted remnant honestly reports its (small) participation."""
        victims = list(range(1, deployment.num_nodes, 2))
        result, _ = self._run_with_crash(
            deployment, readings, victims=victims, crash_at=0.5
        )
        if result.verdict is Verdict.ACCEPTED:
            assert result.participation < 0.7
            # Accepted value must match what participation implies.
            assert result.accuracy == pytest.approx(
                result.participation, abs=0.1
            )
        else:
            assert result.verdict in (
                Verdict.REJECTED_MISMATCH,
                Verdict.INSUFFICIENT,
            )

    def test_dead_head_after_census_triggers_mismatch_accounting(
        self, deployment, readings
    ):
        """A head that registered a census then died looks like loss;
        the verdict may reject on count mismatch but must never accept
        with inflated contributor counts."""
        protocol = IcpdaProtocol(deployment, IcpdaConfig(), seed=78)
        protocol.setup()
        dry = protocol.run_round(readings, round_id=0)
        heads = [
            h for h in protocol.last_exchange.completed_clusters if h != 0
        ]
        victim = heads[0]
        result, _ = self._run_with_crash(
            deployment, readings, victims=[victim], crash_at=20.0, seed=78
        )
        assert result.contributors <= dry.contributors + 10
