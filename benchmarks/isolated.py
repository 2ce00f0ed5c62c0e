"""Measure one bench scenario in a process of its own, in yardsticks.

``run_e2e_bench.py`` and ``run_service_bench.py`` time every scenario
through :func:`run_isolated` and :func:`best_pass`:

* :func:`run_isolated` runs the scenario's measurement in a spawned
  interpreter and ships its report entry back over a pipe, so
  ``peak_rss_mb`` is that scenario's own high-water RSS (the kernel
  counter only grows over a process's life; one shared process let the
  100k row's peak leak into every row timed after it), and no heap or gc
  state carries over from one scenario to the next;
* :func:`best_pass` times each pass under perfbench's
  :class:`~perfbench.speed.Speedometer` and keeps the pass with the
  fewest yardsticks. A yardstick is a fixed pure-Python loop timed
  throughout the run, so a pass's yardsticks stay put when a shared
  host slows the whole process, where its seconds do not.
"""

from __future__ import annotations

import gc
import multiprocessing
import pathlib
import resource
import sys
from typing import Any, Callable, Tuple

# perfbench is a package at the repository root, beside src/; the
# spawned children inherit this path.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))

from perfbench.speed import Speedometer


def best_pass(
    repeats: int, run_pass: Callable[[], Tuple[float, float, Any]]
) -> Tuple[float, float, Any]:
    """Call ``run_pass()`` ``repeats`` times, each returning ``(start,
    end, result)`` perf-counter times; returns ``(seconds, yardsticks,
    result)`` of the pass with the fewest yardsticks.

    ``seconds`` is the pass's wall-clock, the yardstick samples taken
    inside it (2-3% of the time) included, so spans timed inside the
    pass still add up to it. A full ``gc.collect()`` runs before every
    pass and after the last.
    """
    best: Tuple[float, float, Any] = (float("inf"), float("inf"), None)
    with Speedometer() as meter:
        for _ in range(max(1, repeats)):
            gc.collect()
            start, end, result = run_pass()
            _, yardsticks = meter.measure(start, end)
            if yardsticks < best[1]:
                best = (end - start, yardsticks, result)
        gc.collect()
    return best


def peak_rss_mb() -> float:
    """High-water RSS of this process, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _worker(conn, measure: Callable[..., dict], args: tuple) -> None:
    """Child entry point: run the measurement, ship the entry back."""
    try:
        conn.send(measure(*args))
    except BaseException as error:  # surface crashes instead of hanging
        conn.send({"error": f"{type(error).__name__}: {error}"})
        raise
    finally:
        conn.close()


def run_isolated(name: str, measure: Callable[..., dict], *args: Any) -> dict:
    """``measure(*args)`` in a spawned interpreter; returns its entry.

    ``measure`` and ``args`` must pickle (a module-level function and
    plain data). Spawn, not fork, gives the child a fresh interpreter.
    """
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_worker, args=(send, measure, args))
    proc.start()
    send.close()
    try:
        entry = recv.recv()
    except EOFError:
        entry = None
    finally:
        recv.close()
    proc.join()
    if entry is None:
        raise RuntimeError(f"scenario {name} subprocess died with code {proc.exitcode}")
    if "error" in entry:
        raise RuntimeError(f"scenario {name} failed: {entry['error']}")
    return entry
