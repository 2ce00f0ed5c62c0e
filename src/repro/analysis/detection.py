"""Detection-probability analysis (experiment F6's analytic series).

A tampering head escapes only if **no honest, informed witness** both
overhears its outbound report and holds the cluster sum. With

* ``m`` cluster members (``m - 1`` potential witnesses),
* witness participation fraction ``f`` (ablation A1's knob),
* per-witness probability ``p_k`` of knowing the cluster sum (F-set
  delivery success), and
* per-witness probability ``p_o`` of cleanly overhearing the report,

each member independently catches the tamper with probability
``f * p_k * p_o``, so

    ``P_detect = 1 - (1 - f * p_k * p_o)^(m-1)``

(then the alarm must reach the base station — with dual-path routing and
no colluders that is near-certain and folded into ``p_o`` if desired).
"""

from __future__ import annotations

from repro.errors import ReproError


#: Per-witness probability of knowing the cluster sum (``p_k``).
P_KNOW_SUM = 0.95
#: Per-witness probability of cleanly overhearing the report (``p_o``).
P_OVERHEAR = 0.95


def prob_detect_head_tamper(m: int, witness_fraction: float = 1.0) -> float:
    """Probability at least one witness catches a tampering head."""
    if m < 2:
        raise ReproError(f"cluster size must be >= 2, got {m}")
    if not 0.0 <= witness_fraction <= 1.0:
        raise ReproError(
            f"witness_fraction must be in [0, 1], got {witness_fraction}"
        )
    per_witness = witness_fraction * P_KNOW_SUM * P_OVERHEAR
    return 1.0 - (1.0 - per_witness) ** (m - 1)


def prob_detect_multiple(
    num_attackers: int, m: int, witness_fraction: float = 1.0
) -> float:
    """Detection probability with several independent (non-colluding)
    attackers: the round is rejected if *any* of them is caught."""
    if num_attackers < 1:
        raise ReproError(f"num_attackers must be >= 1, got {num_attackers}")
    p_single = prob_detect_head_tamper(m, witness_fraction)
    return 1.0 - (1.0 - p_single) ** num_attackers
