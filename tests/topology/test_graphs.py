"""Unit tests for graph construction and the BFS tree over it."""

import networkx as nx
import pytest

from repro.aggregation.tree import build_aggregation_tree
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.topology.deploy import uniform_deployment
from repro.topology.graphs import (
    connectivity_graph,
    largest_component,
    neighbors_within_range,
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

    def test_disconnected_node(self):
        import numpy as np

        from repro.topology.deploy import Deployment

        positions = np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0]])
        deployment = Deployment(
            positions=positions, field_size=600.0, radio_range=50.0
        )
        graph = connectivity_graph(deployment)
        assert largest_component(graph) == {0, 1}


class TestBfsTree:
    """The distributed HELLO flood builds the BFS tree of the unit-disk
    graph."""

    @staticmethod
    def _tree(deployment):
        return build_aggregation_tree(NetworkStack(Simulator(seed=1), deployment))

    def test_line_tree_parents(self):
        tree = self._tree(make_line_deployment(4))
        assert tree.parents == {0: None, 1: 0, 2: 1, 3: 2}

    def test_depths_and_children(self):
        deployment = make_line_deployment(4)
        tree = self._tree(deployment)
        graph = connectivity_graph(deployment)
        assert tree.depths == nx.single_source_shortest_path_length(graph, 0)
        children = {node: tree.children.get(node, []) for node in tree.parents}
        assert children == {0: [1], 1: [2], 2: [3], 3: []}

    def test_unreachable_nodes_absent(self):
        import numpy as np

        from repro.topology.deploy import Deployment

        positions = np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0]])
        deployment = Deployment(
            positions=positions, field_size=600.0, radio_range=50.0
        )
        tree = self._tree(deployment)
        assert 2 not in tree.parents
        assert tree.reached == 2


class TestStats:
    def test_density_table_columns(self):
        # The T1 table is built from these per-deployment statistics by
        # the experiment's spec builder.
        from repro.experiments.engine import run_serial
        from repro.experiments.density import density_spec

        rows = run_serial(density_spec(sizes=(50, 100), trials=2))
        assert [r["nodes"] for r in rows] == [50, 100]
        assert rows[1]["mean_degree"] > rows[0]["mean_degree"]
        assert all("expected_degree" in r for r in rows)
