"""Unit tests for graph construction and tree derivation."""

import pytest

from repro.errors import DisconnectedNetworkError
from repro.topology.deploy import uniform_deployment
from repro.topology.graphs import (
    bfs_tree_parents,
    connectivity_graph,
    is_connected_to,
    largest_component,
    neighbors_within_range,
    tree_children,
    tree_depths,
)
from tests.conftest import make_line_deployment


class TestAdjacency:
    def test_line_graph_adjacency(self):
        adjacency = neighbors_within_range(make_line_deployment(4))
        assert adjacency == {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}

    def test_adjacency_matches_graph_edges(self, rng):
        deployment = uniform_deployment(40, rng=rng)
        adjacency = neighbors_within_range(deployment)
        graph = connectivity_graph(deployment)
        for node, neighbors in adjacency.items():
            assert sorted(graph.neighbors(node)) == neighbors

    def test_edges_carry_length(self):
        graph = connectivity_graph(make_line_deployment(3))
        assert graph.edges[0, 1]["length"] == pytest.approx(40.0)


class TestComponents:
    def test_connected_line_is_one_component(self):
        graph = connectivity_graph(make_line_deployment(5))
        assert largest_component(graph) == {0, 1, 2, 3, 4}
        assert is_connected_to(graph, 0) == {0, 1, 2, 3, 4}

    def test_disconnected_node(self):
        import numpy as np

        from repro.topology.deploy import Deployment

        positions = np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0]])
        deployment = Deployment(
            positions=positions, field_size=600.0, radio_range=50.0
        )
        graph = connectivity_graph(deployment)
        assert largest_component(graph) == {0, 1}
        assert is_connected_to(graph, 2) == {2}


class TestBfsTree:
    def test_line_tree_parents(self):
        graph = connectivity_graph(make_line_deployment(4))
        parents = bfs_tree_parents(graph, 0)
        assert parents == {0: None, 1: 0, 2: 1, 3: 2}

    def test_depths_and_children(self):
        graph = connectivity_graph(make_line_deployment(4))
        parents = bfs_tree_parents(graph, 0)
        assert tree_depths(parents) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert tree_children(parents) == {0: [1], 1: [2], 2: [3], 3: []}

    def test_unreachable_nodes_absent(self):
        import numpy as np

        from repro.topology.deploy import Deployment

        positions = np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0]])
        deployment = Deployment(
            positions=positions, field_size=600.0, radio_range=50.0
        )
        graph = connectivity_graph(deployment)
        parents = bfs_tree_parents(graph, 0)
        assert 2 not in parents

    def test_require_connected_raises(self):
        import numpy as np

        from repro.topology.deploy import Deployment

        positions = np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0]])
        deployment = Deployment(
            positions=positions, field_size=600.0, radio_range=50.0
        )
        graph = connectivity_graph(deployment)
        with pytest.raises(DisconnectedNetworkError):
            bfs_tree_parents(graph, 0, require_connected=True)

    def test_bfs_prefers_smaller_parent_id(self, rng):
        deployment = uniform_deployment(60, field_size=150.0, rng=rng)
        graph = connectivity_graph(deployment)
        parents = bfs_tree_parents(graph, 0)
        depths = tree_depths(parents)
        for node, parent in parents.items():
            if parent is None:
                continue
            # parent must be exactly one level shallower
            assert depths[parent] == depths[node] - 1


class TestStats:
    def test_density_table_columns(self):
        # The T1 table is built from these per-deployment statistics by
        # the experiment's spec builder.
        from repro.experiments.engine import run_serial
        from repro.experiments.density import density_spec

        rows = run_serial(density_spec(sizes=(50, 100), trials=2, field_size=200.0))
        assert [r["nodes"] for r in rows] == [50, 100]
        assert rows[1]["mean_degree"] > rows[0]["mean_degree"]
        assert all("expected_degree" in r for r in rows)

    def test_degree_sequence_sorted(self, rng):
        from repro.topology.stats import degree_sequence

        deployment = uniform_deployment(30, rng=rng)
        seq = degree_sequence(deployment)
        assert seq == sorted(seq)
        assert len(seq) == 30
