"""The unit-disk link graph of a deployment, as one CSR table.

The DES medium's delay and fading rows, both fluid transports' loss
columns, the neighbor tuples the protocol phases iterate and the density
statistics all read the one :class:`LinkGraph` a deployment builds on
first use (:attr:`Deployment.links`). The *distributed* tree
construction lives in :mod:`repro.aggregation.tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from repro.topology.spatial import neighbor_pairs, pair_lengths


@dataclass(frozen=True)
class LinkGraph:
    """Symmetric unit-disk graph in compressed sparse row form.

    Row ``i`` spans ``indices[indptr[i]:indptr[i + 1]]``, node ``i``'s
    neighbors in ascending id order (``indptr`` int64, ``indices``
    int32). ``lengths`` (float64, aligned with ``indices``) is each
    edge's Euclidean length: ``hypot`` of its ends' coordinate
    differences, the same float in either direction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(cls, positions: np.ndarray, radius: float) -> "LinkGraph":
        """The graph of ``positions`` under the closed-ball predicate
        ``dist <= radius`` (see :func:`~repro.topology.spatial.neighbor_pairs`)."""
        pairs = neighbor_pairs(positions, radius)
        lengths = pair_lengths(positions, pairs)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        indptr = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(positions)), out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=dst[order].astype(np.int32),
            lengths=np.concatenate([lengths, lengths])[order],
        )

    def degrees(self) -> np.ndarray:
        """Neighbor count per node (int64)."""
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> List[Tuple[int, ...]]:
        """Node id -> neighbor tuple of Python ints, for the per-frame
        paths. Built in one pass; every row refers to one ``int`` object
        per node id, so a row costs a pointer per edge."""
        ids = np.arange(len(self.indptr) - 1).astype(object)
        flat = ids[self.indices].tolist()
        bounds = self.indptr.tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    def largest_component_size(self) -> int:
        """Node count of the largest connected component, by breadth-first
        search over the CSR, one whole frontier per step."""
        indptr, indices = self.indptr, self.indices
        seen = np.zeros(len(indptr) - 1, dtype=bool)
        largest = int(seen.size > 0)  # an isolated node is a component
        for seed in np.flatnonzero(self.degrees()).tolist():
            if seen[seed]:
                continue
            seen[seed] = True
            frontier, size = np.array([seed]), 1
            while frontier.size:
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                first = np.repeat(starts - np.cumsum(counts) + counts, counts)
                reached = indices[first + np.arange(first.size)]
                frontier = np.unique(reached[~seen[reached]])
                seen[frontier] = True
                size += frontier.size
            largest = max(largest, size)
        return largest
