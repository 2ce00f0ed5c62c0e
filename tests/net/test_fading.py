"""Unit tests for the distance-dependent fading channel."""

import numpy as np
import pytest

from repro.errors import DeploymentError
from repro.net.radio import RadioParams
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.topology.deploy import Deployment


def two_node_deployment(distance):
    positions = np.array([[0.0, 0.0], [distance, 0.0]])
    return Deployment(
        positions=positions, field_size=200.0, radio_range=50.0
    )


class TestFadingModel:
    def test_zero_fading_never_loses(self):
        radio = RadioParams(edge_fading=0.0)
        assert radio.fading_loss_probability(49.0) == 0.0

    def test_loss_grows_with_distance(self):
        radio = RadioParams(edge_fading=0.5)
        probs = [radio.fading_loss_probability(d) for d in (10, 25, 40, 50)]
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(0.5)

    def test_quartic_shape(self):
        radio = RadioParams(edge_fading=1.0, range_m=100.0)
        assert radio.fading_loss_probability(50.0) == pytest.approx(0.0625)

    def test_validation(self):
        with pytest.raises(DeploymentError):
            RadioParams(edge_fading=1.5)
        with pytest.raises(DeploymentError):
            RadioParams(edge_fading=-0.1)


class TestFadingOnTheMedium:
    def _delivery_rate(self, distance, fading, frames=300):
        sim = Simulator(seed=5)
        deployment = two_node_deployment(distance)
        stack = NetworkStack(
            sim,
            deployment,
            radio=RadioParams(range_m=50.0, edge_fading=fading),
        )
        got = []
        stack.register_handler(1, "x", lambda _node, p: got.append(p))
        for index in range(frames):
            sim.schedule(index * 0.01, lambda: stack.send(0, 1, "x"))
        sim.run()
        return len(got) / frames

    def test_close_link_is_solid(self):
        assert self._delivery_rate(5.0, fading=0.8) > 0.95

    def test_edge_link_is_flaky(self):
        rate = self._delivery_rate(49.0, fading=0.8)
        assert 0.05 < rate < 0.45  # expected ~1 - 0.8*(0.98)^4 ~ 0.26

    def test_no_fading_everything_arrives(self):
        assert self._delivery_rate(49.0, fading=0.0) == 1.0
