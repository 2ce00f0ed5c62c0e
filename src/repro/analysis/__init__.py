"""Closed-form analysis mirrored from the paper family's Section IV-A.

Each model here has a Monte-Carlo or full-simulation counterpart in
:mod:`repro.experiments`; the benchmarks print both so the reproduction
can show analysis-vs-simulation agreement the way the paper does.

* :mod:`repro.analysis.coverage` — cluster-coverage lower bound (the
  analogue of the paper family's Φ(G) bound).
* :mod:`repro.analysis.overhead` — per-node message/byte cost model for
  TAG vs iCPDA and the overhead ratio.
* :mod:`repro.analysis.privacy` — the privacy capacity
  ``P_disclose(p_x, m)`` under link eavesdropping and collusion.
* :mod:`repro.analysis.detection` — detection probability of the
  peer-monitoring layer.
"""

from repro.analysis.coverage import (
    coverage_lower_bound,
    expected_cluster_count,
    prob_hears_head,
)
from repro.analysis.detection import prob_detect_head_tamper
from repro.analysis.overhead import (
    CostModel,
    icpda_bytes_per_node,
    icpda_messages_per_node,
    overhead_ratio,
    tag_bytes_per_node,
    tag_messages_per_node,
)
from repro.analysis.privacy import (
    p_disclose_collusion,
    p_disclose_combined,
    p_disclose_link,
)

__all__ = [
    "prob_hears_head",
    "coverage_lower_bound",
    "expected_cluster_count",
    "CostModel",
    "tag_messages_per_node",
    "tag_bytes_per_node",
    "icpda_messages_per_node",
    "icpda_bytes_per_node",
    "overhead_ratio",
    "p_disclose_link",
    "p_disclose_collusion",
    "p_disclose_combined",
    "prob_detect_head_tamper",
]
