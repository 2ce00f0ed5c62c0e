"""Deterministic discrete-event simulation kernel.

This subpackage is the bottom substrate of the reproduction: a small,
dependency-free event-driven simulator in the style used by WSN research
tools (ns-2 was the paper family's substrate). It provides:

* :class:`~repro.sim.kernel.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventHandle`
  — schedulable callbacks with stable tie-breaking and O(log n) cancel.
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams so protocol randomness, topology randomness and channel
  randomness never interleave (full-run reproducibility from one seed).
* :class:`~repro.sim.trace.TraceLog` — structured, filterable tracing.
"""

from repro.sim.events import Event, EventHandle
from repro.sim.kernel import Simulator
from repro.sim.profiling import PhaseProfiler, PhaseSpan
from repro.sim.rng import RngRegistry
from repro.sim.telemetry import TelemetryCollector, collect
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "EventHandle",
    "Simulator",
    "PhaseProfiler",
    "PhaseSpan",
    "RngRegistry",
    "TelemetryCollector",
    "collect",
    "TraceLog",
    "TraceRecord",
]
