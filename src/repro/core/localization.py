"""Attacker localization by subset re-aggregation.

When a round is rejected, a persistent polluter could mount a DoS by
tainting every subsequent round. The paper's counter-measure: the base
station re-runs aggregation over *subsets* of the network, halving the
candidate set on each probe, isolating the malicious cluster in
``O(log N)`` rounds (then excluding it).

The search is mechanism-agnostic: it takes a probe callable that runs a
restricted round and reports whether pollution was detected. With a
single non-colluding attacker (the paper's model) binary search is exact,
so each subset is probed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.errors import ProtocolError

#: A probe runs a round restricted to the given cluster heads and
#: returns True if pollution was detected.
ProbeFn = Callable[[Tuple[int, ...]], bool]


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of the subset search.

    Attributes
    ----------
    suspects:
        Cluster heads the search narrowed down to (length 1 on success).
    probes_used:
        Restricted rounds actually executed (one per halving).
    converged:
        True when a single suspect was isolated.
    history:
        Per-probe (candidate subset, detected) trail.
    """

    suspects: Tuple[int, ...]
    probes_used: int
    converged: bool
    history: Tuple[Tuple[Tuple[int, ...], bool], ...]


def localize_polluter(
    probe: ProbeFn,
    cluster_heads: Sequence[int],
) -> LocalizationResult:
    """Binary-search the polluting cluster.

    Parameters
    ----------
    probe:
        Runs one restricted round; True = pollution detected in subset.
    cluster_heads:
        Candidate clusters (typically every head of the rejected round).

    Every probe keeps at most half the candidates (rounded up), so the
    search ends after at most :func:`expected_probe_bound` probes.

    Raises
    ------
    ProtocolError
        On an empty candidate list.
    """
    if not cluster_heads:
        raise ProtocolError("localization needs at least one candidate cluster")

    candidates: List[int] = sorted(cluster_heads)
    history: List[Tuple[Tuple[int, ...], bool]] = []

    while len(candidates) > 1:
        half = len(candidates) // 2
        left = tuple(candidates[:half])
        detected_left = probe(left)
        history.append((left, detected_left))
        if detected_left:
            candidates = list(left)
        else:
            candidates = candidates[half:]

    converged = len(candidates) == 1
    return LocalizationResult(
        suspects=tuple(candidates),
        probes_used=len(history),
        converged=converged,
        history=tuple(history),
    )


def expected_probe_bound(num_clusters: int) -> int:
    """The paper's O(log N) claim, concretely: ``ceil(log2 C)`` probes
    suffice for ``C`` candidate clusters with a noiseless probe."""
    if num_clusters < 1:
        raise ProtocolError(f"num_clusters must be >= 1, got {num_clusters}")
    bound = 0
    remaining = num_clusters
    while remaining > 1:
        remaining = (remaining + 1) // 2
        bound += 1
    return bound
