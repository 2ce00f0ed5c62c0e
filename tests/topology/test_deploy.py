"""Unit tests for deployment generators."""

import numpy as np
import pytest

from repro.errors import DeploymentError
from repro.topology.deploy import Deployment, uniform_deployment


class TestDeployment:
    def test_positions_frozen(self, rng):
        deployment = uniform_deployment(10, rng=rng)
        with pytest.raises(ValueError):
            deployment.positions[0, 0] = 5.0

    def test_distance_symmetric(self, rng):
        links = uniform_deployment(60, rng=rng).links
        length = {}
        for a, row in enumerate(links.rows):
            for edge, b in enumerate(row, int(links.indptr[a])):
                length[a, b] = links.lengths[edge]
        assert length
        assert all(length[a, b] == length[b, a] for a, b in length)

    def test_in_range_excludes_self(self, rng):
        deployment = uniform_deployment(10, rng=rng)
        assert 3 not in deployment.links.rows[3]

    def test_base_station_is_node_zero(self, rng):
        deployment = uniform_deployment(10, rng=rng)
        assert deployment.base_station == 0

    def test_validation(self):
        with pytest.raises(DeploymentError):
            Deployment(positions=np.zeros((1, 2)))
        with pytest.raises(DeploymentError):
            Deployment(positions=np.zeros((5, 3)))
        with pytest.raises(DeploymentError):
            Deployment(positions=np.zeros((5, 2)), field_size=-1.0)
        with pytest.raises(DeploymentError):
            Deployment(positions=np.zeros((5, 2)), radio_range=0.0)

    def test_expected_degree_formula(self):
        deployment = uniform_deployment(
            401, field_size=400.0, radio_range=50.0,
            rng=np.random.default_rng(0),
        )
        # (N-1) * pi * r^2 / A = 400 * pi * 2500 / 160000 ~ 19.6
        assert deployment.expected_degree() == pytest.approx(19.63, abs=0.1)


class TestUniform:
    def test_node_count_and_bounds(self, rng):
        deployment = uniform_deployment(50, field_size=100.0, rng=rng)
        assert deployment.num_nodes == 50
        assert (deployment.positions >= 0).all()
        assert (deployment.positions <= 100.0).all()

    def test_bs_pinned_at_center_by_default(self, rng):
        deployment = uniform_deployment(50, field_size=100.0, rng=rng)
        assert deployment.positions[0].tolist() == [50.0, 50.0]

    def test_deterministic_under_seed(self):
        a = uniform_deployment(30, rng=np.random.default_rng(5)).positions
        b = uniform_deployment(30, rng=np.random.default_rng(5)).positions
        assert (a == b).all()

    def test_too_few_nodes_rejected(self, rng):
        with pytest.raises(DeploymentError):
            uniform_deployment(1, rng=rng)
