"""Trial-level experiment execution engine.

Every experiment in this package is a Monte-Carlo sweep: independent
``(sweep point, trial)`` units whose results are averaged into rows.
This module makes that structure explicit and executable in parallel:

* an :class:`ExperimentSpec` names the experiment, lists its *cells*
  (one :class:`CellSpec` per ``(sweep point, trial)`` unit, each with an
  explicit seed derived from the experiment's ``base_seed``), the pure
  **cell function** that computes one unit, and the **reduce function**
  that folds cell values back into table rows;
* :func:`execute` runs the cells — serially or across a
  ``ProcessPoolExecutor`` — with per-cell crash isolation (a raising
  cell records a failure outcome instead of killing the run), a
  per-cell timeout with one retry, and a resumable on-disk cell cache
  keyed by ``(experiment, cell params, seed, context, library_version)``.

Cell functions must be module-level (picklable) and *pure*: everything
they need arrives via ``(params, seed, context)`` and everything they
produce is returned as a JSON-serializable value. Determinism follows:
the same spec yields row-identical results at any ``--jobs`` level,
because seeds are fixed per cell and reduction is ordered by cell
index, never by completion order.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
from repro.errors import ReproError
from repro.experiments.io import sanitize_json
from repro.sim import telemetry as sim_telemetry

PathLike = Union[str, pathlib.Path]

#: Signature of a cell function: ``fn(params, seed, context) -> value``.
CellFn = Callable[[Dict[str, Any], int, Dict[str, Any]], Any]


class CellTimeout(ReproError):
    """A cell exceeded its wall-clock budget."""


@dataclass(frozen=True)
class CellSpec:
    """One independent ``(sweep point, trial)`` unit.

    ``params`` must be a JSON-able mapping that identifies the cell
    within its experiment (it keys the cache and labels progress
    lines); ``seed`` is the explicit RNG seed the cell function must
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
    #: Picklable inputs shared by every cell (e.g. an ``IcpdaConfig``).
    #: Participates in the cache key via its ``repr``.
    context: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CellOutcome:
    """What happened to one cell: value, failure, or cache hit."""

    index: int
    params: Dict[str, Any]
    seed: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    timed_out: bool = False
    cached: bool = False
    attempts: int = 1
    duration_s: float = 0.0
    #: Per-cell telemetry summary (metrics snapshot + trace counts) when
    #: the run collected it; None otherwise (including cache hits, whose
    #: simulators never ran).
    telemetry: Optional[Dict[str, Any]] = None
    #: Path of the cell's exported JSONL trace, when one was written.
    trace_path: Optional[str] = None


@dataclass
class RunReport:
    """Engine-level accounting for one :func:`execute` call."""

    experiment: str
    outcomes: List[CellOutcome]
    wall_clock_s: float
    jobs: int
    timeout_s: Optional[float] = None
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

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    def telemetry_block(self) -> Optional[Dict[str, Any]]:
        """Run-level telemetry rollup for the manifest, or None when the
        run collected none.

        ``metrics`` sums each numeric registry key (``counters.bytes``,
        ``energy.total_j``, ``kernel.fired``...) across the cells that
        ran live — cache hits contribute nothing, which ``cells_with_
        telemetry`` makes visible next to ``cells_total``.
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
            "cells_cached": self.cached,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "jobs": self.jobs,
            "timeout_s": self.timeout_s,
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


def cell_key(spec: ExperimentSpec, cell: CellSpec) -> str:
    """Cache key: ``(experiment, params, seed, context, library_version)``.

    Any library version bump invalidates every cached cell — the
    conservative rule, since cell semantics may change between
    versions. Context objects (configs, enums) enter via ``repr``.
    """
    material = json.dumps(
        {
            "experiment": spec.experiment,
            "params": dict(cell.params),
            "seed": cell.seed,
            "context": {k: repr(v) for k, v in sorted(spec.context.items())},
            "library_version": __version__,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _cache_path(cache_dir: pathlib.Path, spec: ExperimentSpec, cell: CellSpec) -> pathlib.Path:
    return cache_dir / spec.experiment / f"{cell_key(spec, cell)}.json"


def _cache_load(path: pathlib.Path) -> Optional[Any]:
    """The cached value, or None when absent/corrupt (= recompute)."""
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())["value"]
    except (ValueError, KeyError, OSError):
        return None


def _cache_store(
    path: pathlib.Path, spec: ExperimentSpec, cell: CellSpec, value: Any
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": spec.experiment,
        "params": dict(cell.params),
        "seed": cell.seed,
        "library_version": __version__,
        "value": value,
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, allow_nan=False))
    tmp.replace(path)


def _execute_cell(
    cell_fn: CellFn,
    params: Dict[str, Any],
    seed: int,
    context: Dict[str, Any],
    timeout_s: Optional[float],
    telemetry_cfg: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one cell with crash isolation and an in-process timeout.

    Always returns a plain dict (never raises), so nothing exotic has
    to cross the process boundary. The timeout uses ``SIGALRM`` —
    worker processes and the serial path both run cells on their main
    thread — and is skipped on platforms without it.

    With ``telemetry_cfg`` (``{"categories": [...], "capacity": N}``) a
    :mod:`repro.sim.telemetry` collector is active around the cell, and
    the result carries a ``telemetry`` summary plus the trace records as
    JSONL lines (plain strings, so they cross the process boundary).
    """
    start = time.perf_counter()
    use_alarm = timeout_s is not None and timeout_s > 0 and hasattr(signal, "SIGALRM")
    previous = None
    try:
        if use_alarm:

            def _on_alarm(signum, frame):
                raise CellTimeout(f"cell exceeded {timeout_s}s")

            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
        if telemetry_cfg is None:
            value = cell_fn(dict(params), seed, dict(context))
            extra: Dict[str, Any] = {}
        else:
            with sim_telemetry.collect(
                categories=telemetry_cfg.get("categories"),
                capacity=telemetry_cfg.get(
                    "capacity", sim_telemetry.DEFAULT_TRACE_CAPACITY
                ),
            ) as collector:
                value = cell_fn(dict(params), seed, dict(context))
            categories = collector.category_counts()
            extra = {
                "telemetry": {
                    "simulators": len(collector.simulators),
                    "trace_records": sum(categories.values()),
                    "trace_categories": categories,
                    "metrics": sanitize_json(collector.metrics_snapshot()),
                },
                "trace_jsonl": list(collector.trace_lines()),
            }
        return {
            "ok": True,
            "value": sanitize_json(value),
            "duration_s": time.perf_counter() - start,
            **extra,
        }
    except CellTimeout as error:
        return {
            "ok": False,
            "timed_out": True,
            "error": str(error),
            "duration_s": time.perf_counter() - start,
        }
    except Exception as error:  # crash isolation: record, don't kill the run
        return {
            "ok": False,
            "timed_out": False,
            "error": f"{type(error).__name__}: {error}",
            "duration_s": time.perf_counter() - start,
        }
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _progress_line(experiment: str, done: int, total: int, outcome: CellOutcome) -> str:
    if outcome.cached:
        status = "cached"
    elif outcome.ok:
        status = "ok"
    elif outcome.timed_out:
        status = "timeout"
    else:
        status = "failed"
    label = json.dumps(outcome.params, sort_keys=True, default=repr)
    line = (
        f"[{experiment}] cell {done}/{total} {status:7}"
        f" {outcome.duration_s:6.2f}s  {label}"
    )
    if outcome.error:
        line += f"  ({outcome.error})"
    return line


def execute(
    spec: ExperimentSpec,
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    resume: bool = False,
    cache_dir: Optional[PathLike] = None,
    progress: Optional[Callable[[str], None]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    trace_dir: Optional[PathLike] = None,
) -> RunReport:
    """Run every cell of ``spec``; returns per-cell outcomes in index order.

    ``jobs > 1`` fans cells out over a ``ProcessPoolExecutor``; results
    are identical to the serial run because each cell carries its own
    seed and reduction happens in cell order. ``cache_dir`` enables the
    write-through cell cache; ``resume`` additionally *reads* it, so an
    interrupted sweep picks up where it left off. A timed-out cell is
    retried exactly once; a crashing cell records a failure outcome.

    ``telemetry`` (``{"categories": [...] | None, "capacity": N |
    None}``) collects per-cell traces and metrics snapshots; passing
    ``trace_dir`` implies collection and additionally writes one JSONL
    trace file per live cell under ``<trace_dir>/<experiment>/``. Cached
    cells carry no telemetry (their simulators never ran this time).
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    cache = pathlib.Path(cache_dir) if cache_dir is not None else None
    traces = pathlib.Path(trace_dir) if trace_dir is not None else None
    if traces is not None and telemetry is None:
        telemetry = {}
    telemetry_cfg = dict(telemetry) if telemetry is not None else None
    start = time.perf_counter()
    outcomes: List[Optional[CellOutcome]] = [None] * len(spec.cells)
    pending: List[int] = []
    emitted = 0

    def _emit(outcome: CellOutcome) -> None:
        nonlocal emitted
        emitted += 1
        if progress is not None:
            progress(_progress_line(spec.experiment, emitted, len(spec.cells), outcome))

    # Resolve cache hits up front (parent-side, cheap).
    for index, cell in enumerate(spec.cells):
        if resume and cache is not None:
            value = _cache_load(_cache_path(cache, spec, cell))
            if value is not None:
                outcome = CellOutcome(
                    index=index,
                    params=dict(cell.params),
                    seed=cell.seed,
                    ok=True,
                    value=value,
                    cached=True,
                    attempts=0,
                )
                outcomes[index] = outcome
                _emit(outcome)
                continue
        pending.append(index)

    def _finish(index: int, raw: Dict[str, Any], attempts: int) -> CellOutcome:
        cell = spec.cells[index]
        outcome = CellOutcome(
            index=index,
            params=dict(cell.params),
            seed=cell.seed,
            ok=raw["ok"],
            value=raw.get("value"),
            error=raw.get("error"),
            timed_out=raw.get("timed_out", False),
            attempts=attempts,
            duration_s=raw["duration_s"],
            telemetry=raw.get("telemetry"),
        )
        lines = raw.get("trace_jsonl")
        if traces is not None and lines is not None:
            path = traces / spec.experiment / f"cell-{index:04d}.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(line + "\n" for line in lines))
            outcome.trace_path = str(path)
        if outcome.ok and cache is not None:
            _cache_store(_cache_path(cache, spec, cell), spec, cell, outcome.value)
        outcomes[index] = outcome
        _emit(outcome)
        return outcome

    if jobs == 1 or len(pending) <= 1:
        for index in pending:
            cell = spec.cells[index]
            raw = _execute_cell(
                spec.cell,
                dict(cell.params),
                cell.seed,
                spec.context,
                timeout_s,
                telemetry_cfg,
            )
            if raw.get("timed_out"):
                raw = _execute_cell(
                    spec.cell,
                    dict(cell.params),
                    cell.seed,
                    spec.context,
                    timeout_s,
                    telemetry_cfg,
                )
                _finish(index, raw, attempts=2)
            else:
                _finish(index, raw, attempts=1)
    else:
        import multiprocessing

        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            mp_context = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context) as pool:
            attempts: Dict[Any, Tuple[int, int]] = {}

            def _submit(index: int, attempt: int):
                cell = spec.cells[index]
                future = pool.submit(
                    _execute_cell,
                    spec.cell,
                    dict(cell.params),
                    cell.seed,
                    spec.context,
                    timeout_s,
                    telemetry_cfg,
                )
                attempts[future] = (index, attempt)
                return future

            waiting = {_submit(index, 1) for index in pending}
            while waiting:
                finished, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for future in finished:
                    index, attempt = attempts.pop(future)
                    raw = future.result()
                    if raw.get("timed_out") and attempt == 1:
                        waiting.add(_submit(index, 2))
                        continue
                    _finish(index, raw, attempts=attempt)

    final = [o for o in outcomes if o is not None]
    assert len(final) == len(spec.cells)
    return RunReport(
        experiment=spec.experiment,
        outcomes=final,
        wall_clock_s=time.perf_counter() - start,
        jobs=jobs,
        timeout_s=timeout_s,
        telemetry_enabled=telemetry_cfg is not None,
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
            "attempts": outcome.attempts,
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
