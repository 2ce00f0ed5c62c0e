"""Trial-level experiment execution engine.

Every experiment in this package is a Monte-Carlo sweep: independent
``(sweep point, trial)`` units whose results are averaged into rows.
This module makes that structure explicit:

* an :class:`ExperimentSpec` names the experiment, lists its *cells*
  (one :class:`CellSpec` per ``(sweep point, trial)`` unit, each with an
  explicit seed derived from the experiment's ``base_seed``), the pure
  **cell function** that computes one unit, and the **reduce function**
  that folds cell values back into table rows;
* :func:`execute` runs the cells one after another in this process,
  with per-cell crash isolation: a raising cell records a failure
  outcome instead of killing the run. Nothing bounds a cell's wall
  clock, so a hung cell hangs the run.

Cell functions must be *pure*: everything they need arrives via
``(params, seed, context)`` and everything they produce is returned as
a JSON-serializable value. Determinism follows: the same spec yields
row-identical results on every run, because seeds are fixed per cell
and reduction is ordered by cell index.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import __version__
from repro.experiments.io import sanitize_json
from repro.sim import telemetry as sim_telemetry

#: Signature of a cell function: ``fn(params, seed, context) -> value``.
CellFn = Callable[[Dict[str, Any], int, Dict[str, Any]], Any]


@dataclass(frozen=True)
class CellSpec:
    """One independent ``(sweep point, trial)`` unit.

    ``params`` must be a JSON-able mapping that identifies the cell
    within its experiment (it labels progress lines and failure
    rows); ``seed`` is the explicit RNG seed the cell function must
    use for *all* randomness.
    """

    params: Mapping[str, Any]
    seed: int


@dataclass(frozen=True)
class ExperimentSpec:
    """A decomposed experiment: cells + cell function + reduction."""

    experiment: str
    cell: CellFn
    cells: Tuple[CellSpec, ...]
    reduce: Callable[[Sequence["CellOutcome"]], List[dict]]
    #: Inputs shared by every cell (e.g. an ``IcpdaConfig``).
    context: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CellOutcome:
    """What happened to one cell: its value or its failure."""

    index: int
    params: Dict[str, Any]
    seed: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    duration_s: float = 0.0
    #: Per-cell telemetry summary (metrics snapshot + trace counts) when
    #: the run collected it and the cell succeeded; None otherwise.
    telemetry: Optional[Dict[str, Any]] = None
    #: Path of the cell's exported JSONL trace, when one was written.
    trace_path: Optional[str] = None


@dataclass
class RunReport:
    """Engine-level accounting for one :func:`execute` call."""

    experiment: str
    outcomes: List[CellOutcome]
    wall_clock_s: float
    telemetry_enabled: bool = False

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def done(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def telemetry_block(self) -> Optional[Dict[str, Any]]:
        """Run-level telemetry rollup for the manifest, or None when the
        run collected none.

        ``metrics`` sums each numeric registry key (``counters.bytes``,
        ``energy.total_j``, ``kernel.fired``...) across the cells that
        succeeded — failed cells contribute nothing, which
        ``cells_with_telemetry`` makes visible next to ``cells_total``.
        """
        if not self.telemetry_enabled:
            return None
        metrics: Dict[str, Any] = {}
        categories: Dict[str, int] = {}
        records = 0
        cells = 0
        traces: List[str] = []
        for outcome in self.outcomes:
            if outcome.telemetry is None:
                continue
            cells += 1
            records += outcome.telemetry.get("trace_records", 0)
            for category, count in outcome.telemetry.get(
                "trace_categories", {}
            ).items():
                categories[category] = categories.get(category, 0) + count
            for key, value in outcome.telemetry.get("metrics", {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    metrics[key] = value
                elif isinstance(metrics.get(key), (int, float)) and not isinstance(
                    metrics.get(key), bool
                ):
                    metrics[key] = metrics[key] + value
                else:
                    metrics[key] = value
            if outcome.trace_path is not None:
                traces.append(outcome.trace_path)
        block: Dict[str, Any] = {
            "cells_with_telemetry": cells,
            "trace_records": records,
            "trace_categories": categories,
            "metrics": metrics,
        }
        if traces:
            block["trace_files"] = traces
        return block

    def manifest(self) -> Dict[str, Any]:
        """The run manifest persisted next to the JSON artifact."""
        manifest = {
            "experiment": self.experiment,
            "cells_total": self.total,
            "cells_done": self.done,
            "cells_failed": self.failed,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "library_version": __version__,
        }
        telemetry = self.telemetry_block()
        if telemetry is not None:
            manifest["telemetry"] = telemetry
        return manifest


def derive_seed(base_seed: int, experiment: str, params: Mapping[str, Any]) -> int:
    """A stable per-cell seed from ``base_seed`` and the cell identity.

    Uses SHA-256 over the canonical JSON of the inputs, so it is
    reproducible across processes and Python invocations (unlike
    ``hash()``), and two cells never share a seed unless their params
    collide.
    """
    material = json.dumps(
        {"base_seed": base_seed, "experiment": experiment, "params": dict(params)},
        sort_keys=True,
        default=repr,
    )
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _execute_cell(
    spec: ExperimentSpec,
    index: int,
    telemetry: Optional[Dict[str, Any]],
    trace_dir: Optional[pathlib.Path],
) -> CellOutcome:
    """Run one cell with crash isolation: a raising cell becomes a
    failed outcome, never an exception.

    With ``telemetry`` (``{"categories": [...], "capacity": N}``) a
    :mod:`repro.sim.telemetry` collector is active around the cell, and
    a successful outcome carries its ``telemetry`` summary; with
    ``trace_dir`` as well, the collector's trace records are written to
    ``<trace_dir>/<experiment>/cell-<index>.jsonl``.
    """
    cell = spec.cells[index]
    outcome = CellOutcome(
        index=index, params=dict(cell.params), seed=cell.seed, ok=False
    )
    collecting = (
        contextlib.nullcontext()
        if telemetry is None
        else sim_telemetry.collect(
            categories=telemetry.get("categories"),
            capacity=telemetry.get("capacity", sim_telemetry.DEFAULT_TRACE_CAPACITY),
        )
    )
    start = time.perf_counter()
    try:
        with collecting as collector:
            value = sanitize_json(
                spec.cell(dict(cell.params), cell.seed, dict(spec.context))
            )
        if collector is not None:
            categories = collector.category_counts()
            outcome.telemetry = {
                "simulators": len(collector.simulators),
                "trace_records": sum(categories.values()),
                "trace_categories": categories,
                "metrics": sanitize_json(collector.metrics_snapshot()),
            }
    except Exception as error:  # crash isolation: record, don't kill the run
        outcome.error = f"{type(error).__name__}: {error}"
    else:
        outcome.ok, outcome.value = True, value
    outcome.duration_s = time.perf_counter() - start
    if outcome.ok and collector is not None and trace_dir is not None:
        path = trace_dir / spec.experiment / f"cell-{index:04d}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for line in collector.trace_lines():
                handle.write(line + "\n")
        outcome.trace_path = str(path)
    return outcome


def _progress_line(experiment: str, done: int, total: int, outcome: CellOutcome) -> str:
    status = "ok" if outcome.ok else "failed"
    label = json.dumps(outcome.params, sort_keys=True, default=repr)
    line = (
        f"[{experiment}] cell {done}/{total} {status:6}"
        f" {outcome.duration_s:6.2f}s  {label}"
    )
    if outcome.error:
        line += f"  ({outcome.error})"
    return line


def execute(
    spec: ExperimentSpec,
    *,
    progress: Optional[Callable[[str], None]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    trace_dir: Optional[Union[str, pathlib.Path]] = None,
) -> RunReport:
    """Run every cell of ``spec`` in order; a crashing cell records a
    failure outcome and the run goes on.

    ``progress`` receives one line per finished cell. ``telemetry``
    (``{"categories": [...] | None, "capacity": N | None}``) collects
    per-cell traces and metrics snapshots; passing ``trace_dir`` implies
    collection and additionally writes one JSONL trace file per
    successful cell under ``<trace_dir>/<experiment>/``.
    """
    traces = pathlib.Path(trace_dir) if trace_dir is not None else None
    if traces is not None and telemetry is None:
        telemetry = {}
    start = time.perf_counter()
    outcomes: List[CellOutcome] = []
    for index in range(len(spec.cells)):
        outcome = _execute_cell(spec, index, telemetry, traces)
        outcomes.append(outcome)
        if progress is not None:
            progress(
                _progress_line(spec.experiment, index + 1, len(spec.cells), outcome)
            )
    return RunReport(
        experiment=spec.experiment,
        outcomes=outcomes,
        wall_clock_s=time.perf_counter() - start,
        telemetry_enabled=telemetry is not None,
    )


def collect_rows(spec: ExperimentSpec, report: RunReport) -> List[dict]:
    """Reduce the successful outcomes into table rows (cell order)."""
    return spec.reduce([o for o in report.outcomes if o.ok])


def failure_rows(report: RunReport) -> List[dict]:
    """One structured row per failed cell, appended to artifacts so a
    partial run is visible in the table and the saved JSON."""
    return [
        {
            "failed_cell": outcome.index,
            "cell_params": json.dumps(outcome.params, sort_keys=True, default=repr),
            "error": outcome.error,
        }
        for outcome in report.outcomes
        if not outcome.ok
    ]


def serial_outcomes(spec: ExperimentSpec) -> List[CellOutcome]:
    """Strict in-process execution: no isolation, a raising cell
    propagates."""
    return [
        CellOutcome(
            index=index,
            params=dict(cell.params),
            seed=cell.seed,
            ok=True,
            value=sanitize_json(spec.cell(dict(cell.params), cell.seed, dict(spec.context))),
        )
        for index, cell in enumerate(spec.cells)
    ]


def run_serial(spec: ExperimentSpec) -> List[dict]:
    """Strict serial execution reduced to rows (see :func:`serial_outcomes`).

    The library entry point for every experiment:
    ``run_serial(accuracy_spec(sizes=..., trials=...))``.
    """
    return spec.reduce(serial_outcomes(spec))
