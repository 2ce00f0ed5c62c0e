"""Phase profiling: virtual-time and wall-clock spans per protocol phase.

The paper's protocol is explicitly phased (tree build, cluster
formation, share exchange, report + verify), and its latency/overhead
claims are per-phase. A :class:`PhaseProfiler` wraps each phase in a
context manager that records the span in both clocks:

* **virtual time** — what the simulated network experienced (protocol
  latency, the paper's figure axis);
* **wall clock** — what the host CPU spent (the perf-optimisation axis
  the ROADMAP cares about).

Each closed span is emitted as a ``profile.phase`` trace record, and the
profiler's :meth:`~PhaseProfiler.snapshot` plugs straight into a
:class:`~repro.metrics.registry.MetricsRegistry` (namespace ``phases``).
Phases nest: a span opened inside another is recorded under the
``outer/inner`` qualified name and does not disturb the outer span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.sim.trace import TraceLog


class PhaseProfiler:
    """Totals virtual and wall-clock time per phase via a ``with`` context.

    Only the running totals are kept (one entry per distinct phase name),
    so a long-lived profiler stays the same size however many phases it
    times.

    Parameters
    ----------
    clock:
        Virtual time source (normally ``lambda: sim.now``); defaults to a
        zero clock so the profiler works standalone in tests.
    trace:
        Optional trace log; each closed span emits a ``profile.phase``
        record there.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._trace = trace
        self._stack: List[str] = []
        #: qualified name -> [virtual_s total, wall_s total, count]
        self._totals: Dict[str, List[float]] = {}

    @classmethod
    def for_simulator(cls, sim) -> "PhaseProfiler":
        """A profiler bound to ``sim``'s clock and trace, registered under
        the ``phases`` namespace of ``sim.metrics``."""
        profiler = cls(clock=lambda: sim.now, trace=sim.trace)
        sim.metrics.register("phases", profiler.snapshot, replace=True)
        return profiler

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a protocol phase; nests freely."""
        depth = len(self._stack)
        self._stack.append(name)
        qualified = "/".join(self._stack)
        virtual_start = self._clock()
        wall_start = time.perf_counter()
        try:
            yield
        finally:
            wall_s = time.perf_counter() - wall_start
            virtual_s = self._clock() - virtual_start
            self._stack.pop()
            totals = self._totals.setdefault(qualified, [0.0, 0.0, 0])
            totals[0] += virtual_s
            totals[1] += wall_s
            totals[2] += 1
            if self._trace is not None:
                self._trace.emit(
                    "profile.phase",
                    "phase %(phase)s took %(virtual_s).6fs virtual",
                    phase=qualified,
                    virtual_s=virtual_s,
                    wall_s=wall_s,
                    depth=depth,
                )

    def snapshot(self) -> Dict[str, float]:
        """Registry provider: per-phase virtual/wall totals and counts.

        Keys: ``"<phase>.virtual_s"``, ``"<phase>.wall_s"``,
        ``"<phase>.count"`` (qualified names keep their ``/``; dots stay
        reserved for registry namespacing).
        """
        out: Dict[str, float] = {}
        for name, (virtual_s, wall_s, count) in self._totals.items():
            out[f"{name}.virtual_s"] = virtual_s
            out[f"{name}.wall_s"] = wall_s
            out[f"{name}.count"] = count
        return out
