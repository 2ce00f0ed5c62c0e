"""Grid spatial index vs the KD-tree reference.

The spatial grid replaced ``scipy.spatial.cKDTree`` in the unit-disk
adjacency path that every golden-traced run depends on, so these tests
pin *exact* agreement with the KD-tree (same closed-ball predicate, same
double arithmetic) across deployment shapes, densities, and the
degenerate cases a cell grid can get wrong (everything in one cell,
points on cell boundaries, isolated nodes).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.topology.deploy import uniform_deployment
from repro.topology.graphs import LinkGraph
from repro.topology.spatial import (
    compact_cell_ids,
    neighbor_pairs,
    pair_lengths,
)
from tests.layouts import grid_deployment, hotspot_deployment
from tests.oracles import scalar_distance


def _kdtree_pairs(positions: np.ndarray, radius: float) -> set:
    tree = cKDTree(positions)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    return {(int(a), int(b)) for a, b in pairs}


def _grid_pairs(positions: np.ndarray, radius: float) -> set:
    return {(int(a), int(b)) for a, b in neighbor_pairs(positions, radius)}


class TestPairsMatchKDTree:
    @pytest.mark.parametrize("num_nodes", [2, 10, 60, 400])
    @pytest.mark.parametrize("radius", [10.0, 50.0, 130.0])
    def test_uniform_fields(self, num_nodes: int, radius: float) -> None:
        rng = np.random.default_rng((num_nodes, int(radius)))
        positions = rng.uniform(0.0, 200.0, size=(num_nodes, 2))
        assert _grid_pairs(positions, radius) == _kdtree_pairs(
            positions, radius
        )

    def test_radius_larger_than_field(self) -> None:
        """Everything lands in one or two cells; all pairs connect."""
        rng = np.random.default_rng(7)
        positions = rng.uniform(0.0, 30.0, size=(25, 2))
        got = _grid_pairs(positions, 1000.0)
        assert len(got) == 25 * 24 // 2

    def test_points_on_cell_boundaries(self) -> None:
        """Lattice points sitting exactly on cell edges, with distances
        exactly equal to the radius (closed-ball: included)."""
        coords = [(x * 50.0, y * 50.0) for x in range(5) for y in range(5)]
        positions = np.asarray(coords)
        assert _grid_pairs(positions, 50.0) == _kdtree_pairs(positions, 50.0)
        # and the exact-distance pairs are really present
        assert (0, 1) in _grid_pairs(positions, 50.0)

    def test_deployment_generators(self) -> None:
        rng = np.random.default_rng(99)
        for deployment in (
            uniform_deployment(150, rng=rng),
            grid_deployment(150, jitter=5.0, rng=rng),
            hotspot_deployment(150, rng=rng),
        ):
            assert _grid_pairs(
                deployment.positions, deployment.radio_range
            ) == _kdtree_pairs(deployment.positions, deployment.radio_range)

    def test_no_pairs_when_sparse(self) -> None:
        positions = np.asarray([(0.0, 0.0), (500.0, 0.0), (0.0, 500.0)])
        assert neighbor_pairs(positions, 10.0).shape == (0, 2)

    def test_pairs_sorted_and_canonical(self) -> None:
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, 100.0, size=(80, 2))
        pairs = neighbor_pairs(positions, 30.0)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        keys = pairs[:, 0] * len(positions) + pairs[:, 1]
        assert (np.diff(keys) > 0).all()  # strictly lexsorted, no dupes


class TestAdjacency:
    def test_matches_kdtree_reference(self) -> None:
        rng = np.random.default_rng(11)
        deployment = uniform_deployment(200, rng=rng)
        reference: list = [[] for _ in range(deployment.num_nodes)]
        for a, b in _kdtree_pairs(
            deployment.positions, deployment.radio_range
        ):
            reference[a].append(b)
            reference[b].append(a)
        assert deployment.links.rows == [tuple(sorted(r)) for r in reference]

    def test_isolated_nodes_get_empty_lists(self) -> None:
        positions = np.asarray([(0.0, 0.0), (1.0, 0.0), (900.0, 900.0)])
        assert LinkGraph.build(positions, 5.0).rows == [(1,), (0,), ()]

    def test_neighbor_ids_are_python_ints(self) -> None:
        """Protocol code sends node ids in payloads; numpy scalars would
        change payload sizes and trace hashes."""
        rng = np.random.default_rng(2)
        deployment = uniform_deployment(40, rng=rng)
        for neighbors in deployment.links.rows:
            assert all(type(n) is int for n in neighbors)


class TestConnectivityGraph:
    def test_lengths_match_scalar_distance(self) -> None:
        rng = np.random.default_rng(5)
        deployment = uniform_deployment(120, rng=rng)
        pairs = neighbor_pairs(deployment.positions, deployment.radio_range)
        lengths = pair_lengths(deployment.positions, pairs)
        for (a, b), length in zip(pairs.tolist(), lengths.tolist()):
            assert length == scalar_distance(deployment, a, b)
        assert len(deployment.links.indices) == 2 * len(pairs)

    def test_pair_lengths_empty(self) -> None:
        assert pair_lengths(
            np.zeros((3, 2)), np.empty((0, 2), dtype=np.int64)
        ).shape == (0,)


class TestCompactCells:
    @pytest.mark.parametrize("cell_size", [25.0, 50.0, 170.0])
    def test_matches_sorted_tuple_numbering(self, cell_size: float) -> None:
        """The fluid transport's original dict-comprehension numbering:
        occupied cells sorted lexicographically, nodes mapped to their
        cell's rank."""
        rng = np.random.default_rng(17)
        positions = rng.uniform(0.0, 400.0, size=(300, 2))
        cell_of = {
            node: (
                int(positions[node][0] // cell_size),
                int(positions[node][1] // cell_size),
            )
            for node in range(len(positions))
        }
        occupied = sorted(set(cell_of.values()))
        index = {cell: i for i, cell in enumerate(occupied)}
        expected = {node: index[cell] for node, cell in cell_of.items()}

        cell_ids, num_cells = compact_cell_ids(positions, cell_size)
        assert num_cells == len(occupied)
        assert {n: int(c) for n, c in enumerate(cell_ids)} == expected
