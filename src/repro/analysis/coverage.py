"""Cluster-coverage analysis (experiment F1's analytic series).

The paper family bounds tree coverage with a Markov-inequality argument
over per-node isolation probabilities. The iCPDA analogue: a node can
join a cluster in wave 1 iff some neighbor self-elected head, which
happens with probability ``1 - (1-p_c)^d`` for degree ``d``. Nodes that
hear nothing self-elect, so the *residual* failure mode is a self-
elected singleton whose neighborhood cannot supply ``k_min - 1``
joiners; the bound below counts only the dominant wave-1 term, making it
a lower bound on clusterable nodes (the merge wave only improves it).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ReproError


def _validate_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ReproError(f"{name} must be in [0, 1], got {value}")


def prob_hears_head(degree: int, p_c: float) -> float:
    """Probability a node with ``degree`` neighbors hears >= 1 wave-1
    head announcement: ``1 - (1 - p_c)^degree``."""
    _validate_probability("p_c", p_c)
    if degree < 0:
        raise ReproError(f"degree must be >= 0, got {degree}")
    return 1.0 - (1.0 - p_c) ** degree


def coverage_lower_bound(degrees: Sequence[int], p_c: float) -> float:
    """Lower bound on the fraction of nodes that can cluster in wave 1.

    Markov-style: ``P(all covered) >= 1 - Σ_i (1-p_c)^{d_i}`` clipped to
    [0, 1]; the *expected fraction covered* is the mean of the per-node
    terms, which is what the simulation measures and what this returns.
    """
    _validate_probability("p_c", p_c)
    if not degrees:
        raise ReproError("need at least one degree")
    return sum(prob_hears_head(d, p_c) for d in degrees) / len(degrees)
