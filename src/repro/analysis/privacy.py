"""Privacy capacity ``P_disclose`` (experiment F2's analytic series).

Reconstruction of a member's reading in an ``m``-cluster needs the
adversary to read *all* ``m-1`` outgoing shares **and** all ``m-1``
incoming shares (the own-seed share never travels; it falls out of the
public ``F(x_i)`` once the in-shares are known). Link encryption is per
*link key*: breaking the key of link ``(i, j)`` exposes both the share
``i → j`` and the share ``j → i``, so with direct in-cluster delivery
the two requirements coincide over the same ``m-1`` links:

    ``P_disclose = [1 - (1 - p_x)^h]^(m-1)``

which for direct delivery (``h = 1``) is ``p_x^(m-1)`` — e.g. ``1e-3``
for m=4 at p_x=0.1 — and is *insensitive to network density* (the
cluster, not the neighborhood, sets the exponent). Head-relayed shares
cross ``h = 2`` links and are strictly more exposed, which the Monte-
Carlo experiment captures exactly and this model approximates through
the mean-hops parameter.

Collusion: a victim is structurally disclosed iff all other ``m-1``
members are compromised; with independent node-compromise probability
``p_n`` that is ``p_n^{m-1}``.
"""

from __future__ import annotations

from repro.errors import ReproError


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ReproError(f"{name} must be in [0, 1], got {value}")


def _check_cluster(m: int) -> None:
    if m < 2:
        raise ReproError(f"cluster size must be >= 2, got {m}")


def p_disclose_link(p_x: float, m: int, hops: float = 1.0) -> float:
    """Link-eavesdropping disclosure probability for one member."""
    _check_prob("p_x", p_x)
    _check_cluster(m)
    if hops < 1:
        raise ReproError(f"hops must be >= 1, got {hops}")
    p_share = 1.0 - (1.0 - p_x) ** hops
    return p_share ** (m - 1)


def p_disclose_collusion(p_n: float, m: int) -> float:
    """Structural disclosure under independent node compromise."""
    _check_prob("p_n", p_n)
    _check_cluster(m)
    return p_n ** (m - 1)


def recommended_cluster_size(p_x: float, target: float) -> int:
    """Smallest cluster size whose ``p_disclose_link`` is below ``target``
    with direct delivery — the paper-style "we recommend m = ..." helper.

    Raises
    ------
    ReproError
        If the target is unreachable (p_x = 1) or inputs are invalid.
    """
    _check_prob("p_x", p_x)
    if not 0.0 < target < 1.0:
        raise ReproError(f"target must be in (0, 1), got {target}")
    for m in range(2, 64):
        if p_disclose_link(p_x, m) <= target:
            return m
    raise ReproError(
        f"no cluster size up to 64 achieves target {target} at p_x={p_x}"
    )
