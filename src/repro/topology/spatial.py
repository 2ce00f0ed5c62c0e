"""Grid-bucketed spatial index for unit-disk neighbor queries.

Classic cell-list technique: hash every point into a square cell of edge
``radius``, then any pair within ``radius`` of each other lies in the
same cell or in one of the 8 surrounding cells. Scanning the 5 forward
half-neighborhood offsets — (0,0), (0,1), (1,-1), (1,0), (1,1) — visits
every such pair exactly once, so candidate generation is O(N · local
density) instead of the O(N²) of all-pairs scans, and every step here is
a whole-array numpy operation (bucketing, cell matching, ragged
cross-products, the distance predicate) rather than per-pair Python.

The distance predicate is the *closed* ball ``dx² + dy² <= r²``,
evaluated in double precision exactly like ``scipy.spatial.cKDTree
.query_pairs`` — callers that previously used the KD-tree (the link
graph, hence every golden-traced DES run) see the exact same edge set.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Forward half of the Moore neighborhood: together with cell identity,
#: these offsets enumerate every unordered pair of cells that can hold
#: points within one cell-edge of each other, each pair exactly once.
_FORWARD_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _ragged_cross(
    order: np.ndarray,
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (member of bucket A_k) × (member of bucket B_k) index pairs,
    for every matched bucket pair k, as two flat arrays — no Python loop
    over buckets or members."""
    pair_counts = counts_a * counts_b
    total = int(pair_counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    bucket = np.repeat(np.arange(len(pair_counts)), pair_counts)
    base = np.concatenate(([0], np.cumsum(pair_counts)[:-1]))
    rank = np.arange(total, dtype=np.int64) - base[bucket]
    width = counts_b[bucket]
    a_local = rank // width
    b_local = rank - a_local * width
    return (
        order[starts_a[bucket] + a_local],
        order[starts_b[bucket] + b_local],
    )


def _bucketize(
    positions: np.ndarray, cell_size: float
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Cell keys for every point, in a dense integer keyspace where the
    key of cell (cx, cy) is ``cx * stride + cy`` and key order equals
    lexicographic (cx, cy) order.

    Returns ``(keys, cells, stride)``; ``cells`` is the (N, 2) integer
    cell-coordinate array (shifted to a 1-based range so every offset
    in the Moore neighborhood stays inside the keyspace without row
    wrap-around).
    """
    cells = np.floor_divide(positions, cell_size).astype(np.int64)
    cells -= cells.min(axis=0)
    cells += 1  # pad: offsets of ±1 never wrap into a neighboring row
    stride = int(cells[:, 1].max()) + 2
    keys = cells[:, 0] * stride + cells[:, 1]
    return keys, cells, stride


def neighbor_pairs(positions: np.ndarray, radius: float) -> np.ndarray:
    """All unordered pairs (i, j), i < j, with ``dist(i, j) <= radius``.

    Returns a ``(P, 2)`` int64 array sorted lexicographically by
    (i, j). Equivalent to ``cKDTree(positions).query_pairs(radius)`` —
    same closed-ball predicate, same double-precision arithmetic.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)

    keys, _, stride = _bucketize(positions, radius)
    order = np.argsort(keys, kind="stable")  # within a cell: ascending id
    unique_keys, starts = np.unique(keys[order], return_index=True)
    counts = np.diff(np.append(starts, n))

    cand_i: List[np.ndarray] = []
    cand_j: List[np.ndarray] = []

    # Same-cell pairs: full cross product masked to i < j (cells are
    # small, so the 2x overdraw beats a triangular-index decode).
    i, j = _ragged_cross(order, starts, counts, starts, counts)
    same = i < j
    cand_i.append(i[same])
    cand_j.append(j[same])

    # Forward-offset cell pairs: match each occupied cell against its
    # shifted key with one searchsorted per offset.
    for dx, dy in _FORWARD_OFFSETS:
        target = unique_keys + dx * stride + dy
        pos = np.searchsorted(unique_keys, target)
        pos_clipped = np.minimum(pos, len(unique_keys) - 1)
        valid = unique_keys[pos_clipped] == target
        if not valid.any():
            continue
        a_sel = np.flatnonzero(valid)
        b_sel = pos[valid]
        i, j = _ragged_cross(
            order, starts[a_sel], counts[a_sel], starts[b_sel], counts[b_sel]
        )
        cand_i.append(i)
        cand_j.append(j)

    ii = np.concatenate(cand_i)
    jj = np.concatenate(cand_j)
    dx = positions[ii, 0] - positions[jj, 0]
    dy = positions[ii, 1] - positions[jj, 1]
    keep = dx * dx + dy * dy <= radius * radius
    ii, jj = ii[keep], jj[keep]

    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    sorted_order = np.lexsort((hi, lo))
    return np.stack([lo[sorted_order], hi[sorted_order]], axis=1)


def pair_lengths(positions: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Euclidean length of every (i, j) pair, vectorized ``np.hypot`` —
    bit-identical to per-pair ``hypot`` on the coordinate differences."""
    positions = np.asarray(positions, dtype=float)
    if len(pairs) == 0:
        return np.empty(0, dtype=float)
    delta = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    return np.hypot(delta[:, 0], delta[:, 1])


def compact_cell_ids(
    positions: np.ndarray, cell_size: float
) -> Tuple[np.ndarray, int]:
    """Dense ids of the occupied grid cells: ``(cell_id_per_node,
    num_occupied_cells)``, with occupied cells numbered in lexicographic
    (cx, cy) order — the same numbering as sorting the set of
    ``(floor(x / s), floor(y / s))`` tuples."""
    positions = np.asarray(positions, dtype=float)
    keys, _, _ = _bucketize(positions, cell_size)
    unique, inverse = np.unique(keys, return_inverse=True)
    return inverse, len(unique)
