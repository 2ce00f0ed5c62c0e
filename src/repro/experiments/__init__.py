"""Experiment implementations for the reproduced evaluation suite.

One module per experiment id from DESIGN.md. Each experiment's single
entry point is its ``*_spec`` builder, an
:class:`~repro.experiments.engine.ExperimentSpec`: the CLI runs it
through :func:`~repro.experiments.engine.execute`, and library callers
get the rows with ``run_serial(density_spec(...))``.

==========  ==========================================  =========================================
Experiment  What it reproduces                          Spec builder
==========  ==========================================  =========================================
T1          network size vs average degree              density.density_spec
T2          every aggregate function through one round  accuracy.aggregate_comparison_spec
F1          cluster coverage vs size (sim vs bound)     coverage.coverage_spec
F2          P_disclose vs p_x per cluster size          privacy.privacy_spec
F3          bytes vs size: TAG vs iCPDA                 overhead.overhead_spec
F4          accuracy vs size: TAG vs iCPDA              accuracy.accuracy_spec
F5          |contributors - census| -> Th selection     threshold.threshold_spec
F6          detection/false-alarm vs attackers          detection.detection_spec
F7          localization rounds vs cluster count        localization.localization_spec
F8          epoch latency vs size                       latency.latency_spec
F9          TAG vs slicing vs iCPDA                     compare_schemes.compare_spec
F10         network lifetime under a radio budget       lifetime.lifetime_spec
A1          witness-fraction ablation                   ablation.witness_spec
A2          cluster-size-bounds ablation                ablation.cluster_size_spec
A3          collusion boundary                          detection.collusion_spec
A4          EG key predistribution                      keymgmt.eg_spec
A5          fixed vs adaptive head election             election.election_spec
A6          robustness under channel fading             fading.fading_spec
A7          integrity layer cost and value              integrity_cost.integrity_cost_spec
==========  ==========================================  =========================================

F5 adds ``threshold.run_threshold_experiment`` (gap quantiles on top of
the rows) and F6 adds ``detection.run_strategy_matrix`` (one row per
tamper strategy).
"""

from repro.experiments.common import (
    DEFAULT_SIZES,
    build_icpda,
    make_readings,
    run_icpda_round,
    run_tag_round_on,
)
from repro.experiments.engine import (
    CellOutcome,
    CellSpec,
    ExperimentSpec,
    RunReport,
    collect_rows,
    derive_seed,
    execute,
    failure_rows,
    run_serial,
)

__all__ = [
    "DEFAULT_SIZES",
    "make_readings",
    "build_icpda",
    "run_icpda_round",
    "run_tag_round_on",
    # engine
    "CellSpec",
    "CellOutcome",
    "ExperimentSpec",
    "RunReport",
    "derive_seed",
    "execute",
    "collect_rows",
    "failure_rows",
    "run_serial",
]
