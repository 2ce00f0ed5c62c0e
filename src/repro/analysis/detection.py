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


def prob_detect_head_tamper(
    m: int,
    witness_fraction: float = 1.0,
    p_know_sum: float = 0.95,
    p_overhear: float = 0.95,
) -> float:
    """Probability at least one witness catches a tampering head."""
    if m < 2:
        raise ReproError(f"cluster size must be >= 2, got {m}")
    for name, value in (
        ("witness_fraction", witness_fraction),
        ("p_know_sum", p_know_sum),
        ("p_overhear", p_overhear),
    ):
        if not 0.0 <= value <= 1.0:
            raise ReproError(f"{name} must be in [0, 1], got {value}")
    per_witness = witness_fraction * p_know_sum * p_overhear
    return 1.0 - (1.0 - per_witness) ** (m - 1)


def prob_detect_multiple(
    num_attackers: int,
    m: int,
    witness_fraction: float = 1.0,
    p_know_sum: float = 0.95,
    p_overhear: float = 0.95,
) -> float:
    """Detection probability with several independent (non-colluding)
    attackers: the round is rejected if *any* of them is caught."""
    if num_attackers < 1:
        raise ReproError(f"num_attackers must be >= 1, got {num_attackers}")
    p_single = prob_detect_head_tamper(m, witness_fraction, p_know_sum, p_overhear)
    return 1.0 - (1.0 - p_single) ** num_attackers
