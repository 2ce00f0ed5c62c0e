"""Deterministic discrete-event simulation kernel.

This subpackage is the bottom substrate of the reproduction: a small,
dependency-free event-driven simulator in the style used by WSN research
tools (ns-2 was the paper family's substrate). It provides:

* :class:`~repro.sim.kernel.Simulator` — the event loop and virtual clock.
  Events are fire-and-forget ``(time, seq, callback, args)`` heap
  entries; callbacks scheduled for one instant fire in call order.
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams so protocol randomness, topology randomness and channel
  randomness never interleave (full-run reproducibility from one seed).
* :class:`~repro.sim.profiling.PhaseProfiler` — per-phase virtual and
  wall-clock totals.
* :class:`~repro.sim.trace.TraceLog` — structured, filterable tracing.
"""

from repro.sim.kernel import Simulator
from repro.sim.profiling import PhaseProfiler
from repro.sim.rng import RngRegistry
from repro.sim.telemetry import TelemetryCollector, collect
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Simulator",
    "PhaseProfiler",
    "RngRegistry",
    "TelemetryCollector",
    "collect",
    "TraceLog",
    "TraceRecord",
]
