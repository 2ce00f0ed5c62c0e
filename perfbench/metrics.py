"""Reported metrics: how each is computed, and which layer moves which.

End-to-end metrics come from untraced runs and are the ones a user of
the system sees; per-layer metrics come from traced runs (see
:mod:`perfbench.tracing`) and explain them. Every workload reports every
metric, so each name below has one meaning on all four workloads:

* an *operation* is a round (``round-*``), a query (``serve-*``) or a
  localization episode (``localize-*``);
* a *protocol round* is Phases II-IV on an instance: a round, a service
  epoch, or a localization probe (which also runs Phase I, because every
  probe is a fresh instance).

End-to-end timings are measured in yardsticks (see :mod:`perfbench.speed`):
on a shared host, the same code's latency in seconds spreads wider
between runs than any bound a regression could be judged by, while its
latency in yardsticks does not. Set-up time is reported in seconds at
:data:`REFERENCE_YARDSTICK_S`, that is, in yardsticks times that
constant. The seconds as measured are printed beside both. Per-layer
timings are in seconds as measured.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from perfbench.stats import nearest_rank, p50
from perfbench.tracing import Tracer
from perfbench.workloads import Outcome

#: Seconds per yardstick in the reported set-up time: about the
#: yardstick's median on the 2-vCPU Xeon host the bounds were set on.
REFERENCE_YARDSTICK_S = 0.001

#: End-to-end metrics, as :func:`end_to_end` reports them.
END_TO_END = (
    "setup_s",
    "latency_p50_yardsticks",
    "radio_kb_per_round",
    "accuracy_p50",
    "accept_ratio",
    "peak_rss_mb",
)

#: Per-layer self-time metrics and the tracer layer each one reads.
SELF_TIME_METRICS: Tuple[Tuple[str, str], ...] = (
    ("kernel.self_s", "kernel"),
    ("net.send_self_s", "net.send"),
    ("net.resolve_self_s", "net.resolve"),
    ("proto.handler_self_s", "proto.handler"),
    ("proto.phase_self_s", "proto.phase"),
    ("algebra.shares_s", "algebra.shares"),
    ("round.other_self_s", "round.other"),
)

#: Marks a per-layer metric that checks the measurement itself.
VALIDITY: Tuple[Tuple[str, str], ...] = ()

_BULK, _DES = "round-2k-bulk", "round-1k-des"
_SERVE, _LOCALIZE = "serve-1k-fluid", "localize-1k-fluid"
_LATENCY = "latency_p50_yardsticks"

#: Which end-to-end metric, on which workload, each per-layer metric
#: should move. Written down before any change is measured against it.
LAYER_MAP: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "round.wall_s": ((_LATENCY, _BULK), (_LATENCY, _DES)),
    "kernel.self_s": ((_LATENCY, _DES),),
    "net.send_self_s": ((_LATENCY, _BULK), ("radio_kb_per_round", _BULK)),
    "net.resolve_self_s": ((_LATENCY, _DES),),
    "proto.handler_self_s": ((_LATENCY, _DES), (_LATENCY, _SERVE)),
    "proto.phase_self_s": ((_LATENCY, _BULK),),
    "algebra.shares_s": ((_LATENCY, _BULK),),
    "round.other_self_s": ((_LATENCY, _SERVE),),
    "phase.tree_s": (("setup_s", _BULK), ("setup_s", _DES), (_LATENCY, _LOCALIZE)),
    "phase.clustering_s": ((_LATENCY, _LOCALIZE), (_LATENCY, _BULK)),
    "phase.exchange_s": ((_LATENCY, _BULK),),
    "phase.report_s": ((_LATENCY, _LOCALIZE), ("accept_ratio", _LOCALIZE)),
    "sim.events_fired": ((_LATENCY, _DES),),
    "net.frames": (("radio_kb_per_round", _BULK), (_LATENCY, _BULK)),
    "net.send_many_rows": ((_LATENCY, _BULK),),
    "integrity.alarms": (("accept_ratio", _LOCALIZE), ("accept_ratio", _DES)),
    "heap.objects_per_round": ((_LATENCY, _BULK), ("peak_rss_mb", _BULK)),
    "round.drift_ratio": ((_LATENCY, _BULK),),
    "proto.rounds_per_op": ((_LATENCY, _LOCALIZE),),
    "service.batch_size_p50": ((_LATENCY, _SERVE),),
    "service.cache_hit_ratio": ((_LATENCY, _SERVE),),
    "load.wait_p50_s": ((_LATENCY, _SERVE),),
    "latency_p90_s": ((_LATENCY, _SERVE),),
    "latency_p99_s": ((_LATENCY, _SERVE),),
    "load.lag_p99_s": VALIDITY,
    "trace.overhead_ratio": VALIDITY,
    "trace.layer_sum_ratio": VALIDITY,
}


def end_to_end(out: Outcome) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics of an untraced run, and a sample-count
    note for each percentile."""
    notes: Dict[str, str] = {}

    def percentile(name: str, values: Sequence[float], q: float) -> float:
        if not values:
            notes[name] = "no samples"
            return 0.0
        value, samples, beyond = nearest_rank(values, q)
        notes[name] = f"n={samples}, {beyond} beyond"
        return value

    metrics = {
        "setup_s": percentile("setup_s", out.setup_yardsticks, 0.5)
        * REFERENCE_YARDSTICK_S,
        _LATENCY: percentile(_LATENCY, out.latency_yardsticks, 0.5),
        "radio_kb_per_round": percentile(
            "radio_kb_per_round", [b / 1000.0 for b in out.round_bytes], 0.5
        ),
        "accuracy_p50": percentile("accuracy_p50", out.accuracy, 0.5),
        "accept_ratio": out.accepted / max(1, out.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes["accept_ratio"] = f"{out.accepted}/{out.attempted}"
    yardstick_ms = p50(out.meter.took) * 1000
    for name, seconds in (("setup_s", out.setup_s), (_LATENCY, out.latency_s)):
        if seconds:
            notes[name] += (
                f"; {p50(seconds):.4g} s as measured,"
                f" at a median yardstick of {yardstick_ms:.3g} ms"
            )
    return metrics, notes


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _durations(spans: List[dict]) -> List[float]:
    return [span["end"] - span["start"] for span in spans]


def per_layer(out: Outcome, tracer: Tracer, overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    Self times are means per traced protocol round, so with
    ``round.wall_s`` (the mean traced round) they satisfy
    ``sum(self times) == round.wall_s`` up to timer resolution.
    ``phase.*_s`` are mean durations of one call of that phase, set-up
    included.
    """
    rounds = tracer.spans_named("round")
    traced = max(1, len(rounds))
    self_total: Dict[str, float] = defaultdict(float)
    for span in rounds:
        for layer, seconds in span["self"].items():
            self_total[layer] += seconds
    metrics = {"round.wall_s": sum(_durations(rounds)) / traced}
    for name, layer in SELF_TIME_METRICS:
        metrics[name] = self_total[layer] / traced
    for phase in ("tree", "clustering", "exchange", "report"):
        metrics[f"phase.{phase}_s"] = _mean(_durations(tracer.spans_named(f"phase.{phase}")))

    per_round = max(1, out.rounds)
    # In yardsticks, so that a host slowing down mid-run is not drift.
    latency = out.latency_yardsticks
    third = max(1, len(latency) // 3)
    first, last = _mean(latency[:third]), _mean(latency[-third:])
    metrics.update(
        {
            "sim.events_fired": out.events_fired / per_round,
            "net.frames": out.frames / per_round,
            "net.send_many_rows": tracer.counts["net.send_many_rows"] / per_round,
            "integrity.alarms": out.alarms / per_round,
            "heap.objects_per_round": out.heap_growth / per_round,
            "round.drift_ratio": last / first if first else 0.0,
            "proto.rounds_per_op": out.rounds / max(1, out.attempted),
            "service.batch_size_p50": p50(out.batch_sizes),
            "service.cache_hit_ratio": out.cache_hits / out.cache_eligible
            if out.cache_eligible
            else 0.0,
            "load.wait_p50_s": p50(out.wait_s),
            "latency_p90_s": nearest_rank(out.latency_s, 0.9).value
            if out.latency_s
            else 0.0,
            "latency_p99_s": nearest_rank(out.latency_s, 0.99).value
            if out.latency_s
            else 0.0,
            "load.lag_p99_s": nearest_rank(out.lag_s, 0.99).value if out.lag_s else 0.0,
            "trace.overhead_ratio": overhead_ratio,
            "trace.layer_sum_ratio": layer_sum_ratio(metrics),
        }
    )
    return metrics


def layer_sum_ratio(metrics: Dict[str, float]) -> float:
    """Per-layer self times over the traced round time they partition."""
    wall = metrics.get("round.wall_s", 0.0)
    if not wall:
        return 0.0
    return sum(metrics.get(name, 0.0) for name, _ in SELF_TIME_METRICS) / wall
