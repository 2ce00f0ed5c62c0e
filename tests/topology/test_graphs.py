"""Unit tests for the link graph and the BFS tree over it (networkx is
the oracle)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation.tree import build_aggregation_tree
from repro.net.stack import NetworkStack
from repro.sim.kernel import Simulator
from repro.topology.deploy import Deployment, uniform_deployment
from repro.topology.graphs import LinkGraph
from repro.topology.spatial import neighbor_pairs
from repro.topology.stats import density_stats
from tests.conftest import make_line_deployment
from tests.oracles import scalar_distance

RANGE_M = 50.0


def nx_graph(deployment: Deployment) -> nx.Graph:
    """The unit-disk graph as a :class:`networkx.Graph` oracle."""
    return nx_graph_of(deployment.positions, deployment.radio_range)


def nx_graph_of(positions: np.ndarray, radius: float) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(len(positions)))
    graph.add_edges_from(neighbor_pairs(positions, radius).tolist())
    return graph


def split_deployment() -> Deployment:
    """Nodes 0 and 1 in range of each other, node 2 far away."""
    positions = np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0]])
    return Deployment(positions=positions, field_size=600.0, radio_range=50.0)


class TestAdjacency:
    def test_line_graph_adjacency(self):
        rows = make_line_deployment(4).links.rows
        assert rows == [(1,), (0, 2), (1, 3), (2,)]

    def test_adjacency_matches_graph_edges(self, rng):
        deployment = uniform_deployment(40, rng=rng)
        graph = nx_graph(deployment)
        for node, neighbors in enumerate(deployment.links.rows):
            assert tuple(sorted(graph.neighbors(node))) == neighbors

    def test_edges_carry_length(self):
        links = make_line_deployment(3).links
        assert links.lengths[links.indptr[0]] == pytest.approx(40.0)


class TestComponents:
    def test_connected_line_is_one_component(self):
        assert make_line_deployment(5).links.largest_component_size() == 5

    def test_disconnected_node(self):
        assert split_deployment().links.largest_component_size() == 2


class TestLinkGraphInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csr_rows_ascend_symmetric_with_scalar_lengths(self, seed):
        deployment = uniform_deployment(150, rng=np.random.default_rng(seed))
        links = deployment.links
        indptr, indices = links.indptr, links.indices
        num_nodes = deployment.num_nodes
        assert len(indptr) == num_nodes + 1 and indptr[0] == 0
        assert indptr[-1] == len(indices) == len(links.lengths)
        for node in range(num_nodes):
            row = indices[indptr[node] : indptr[node + 1]]
            assert (np.diff(row) > 0).all()
            assert node not in row
        src = np.repeat(np.arange(num_nodes), links.degrees()).tolist()
        dst = indices.tolist()
        assert sorted(zip(src, dst)) == sorted(zip(dst, src))
        for a, b, length in zip(src, dst, links.lengths.tolist()):
            assert length == scalar_distance(deployment, a, b)
        assert links.rows == [
            tuple(indices[indptr[n] : indptr[n + 1]].tolist())
            for n in range(num_nodes)
        ]

    def test_built_once_per_deployment(self):
        deployment = make_line_deployment(4)
        assert deployment.links is deployment.links
        assert deployment.links.rows is deployment.links.rows

    def test_single_node(self):
        links = LinkGraph.build(np.zeros((1, 2)), RANGE_M)
        assert links.rows == [()]
        assert links.degrees().tolist() == [0]
        assert links.largest_component_size() == 1


@st.composite
def layouts(draw):
    """1..40 nodes on a square from a fraction of a radio range wide (one
    clique) to six ranges wide (scattered, mostly disconnected)."""
    num_nodes = draw(st.integers(min_value=1, max_value=40))
    span = draw(st.floats(min_value=1.0, max_value=6 * RANGE_M))
    coordinate = st.floats(min_value=0.0, max_value=span)
    points = draw(
        st.lists(
            st.tuples(coordinate, coordinate),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    return np.array(points, dtype=float).reshape(num_nodes, 2)


class TestDensityStatsOracle:
    """``density_stats`` and the CSR breadth-first search agree with
    networkx on degrees, isolated nodes and the largest component."""

    @given(layouts())
    @example(np.array([[0.0, 0.0]]))
    @example(np.array([[0.0, 0.0], [500.0, 0.0]]))
    @example(np.array([[0.0, 0.0], [40.0, 0.0], [500.0, 0.0], [530.0, 0.0]]))
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx(self, positions):
        graph = nx_graph_of(positions, RANGE_M)
        degrees = [degree for _, degree in graph.degree()]
        lcc = max(len(c) for c in nx.connected_components(graph))
        links = LinkGraph.build(positions, RANGE_M)
        assert links.degrees().tolist() == degrees
        assert links.largest_component_size() == lcc
        if len(positions) < 2:
            return  # a Deployment needs a base station and a sensor
        deployment = Deployment(
            positions=positions, field_size=1000.0, radio_range=RANGE_M
        )
        stats = density_stats(deployment)
        assert stats.num_nodes == len(positions)
        assert stats.mean_degree == float(np.mean(degrees))
        assert (stats.min_degree, stats.max_degree) == (min(degrees), max(degrees))
        assert stats.isolated_nodes == degrees.count(0)
        assert stats.largest_component_fraction == lcc / len(positions)


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
        graph = nx_graph(deployment)
        assert tree.depths == nx.single_source_shortest_path_length(graph, 0)
        children = {node: tree.children.get(node, []) for node in tree.parents}
        assert children == {0: [1], 1: [2], 2: [3], 3: []}

    def test_unreachable_nodes_absent(self):
        tree = self._tree(split_deployment())
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
