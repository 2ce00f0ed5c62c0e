"""Layer spans recorded from outside the program.

:func:`tracing` wraps public entry points of ``repro`` for the duration
of a ``with`` block and restores them on exit. Nothing under ``src/``
knows it is being traced; the wrappers only time calls and pass every
argument and return value through untouched, which the benchmark proves
by comparing a traced run against an untraced one with the same seed.

Two kinds of span are kept:

* **Coarse spans** (setup, round, episode, and each protocol phase) are
  recorded one by one with name, start, end, parent and identifier, plus
  the self time every layer accrued inside them.
* **Fine spans** (kernel dispatch, transport calls, packet handlers and
  timers, share algebra) run far too often to record individually, so
  each only adds its self time to a per-thread accumulator keyed by
  layer. A coarse span's breakdown is the accumulator's growth over its
  interval.

A span's self time is its duration minus the time its child spans
cover. Every wrapper is a child of whatever span is open on its thread,
so the self times inside a coarse span add up to its duration.

Fired events are attributed by the module that defines their callback:
callbacks from ``repro.net`` are transport work (``net.resolve``:
medium, MAC and frame delivery), all others are protocol timers
(``proto.handler``, like the packet handlers the protocol registers).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf_counter = time.perf_counter

class _ThreadState:
    """One thread's open-span stack and self-time accumulator."""

    __slots__ = ("stack", "self_s")

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_seconds, coarse_id]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)


class Tracer:
    """Collects spans and counters for one benchmark run.

    Parameters
    ----------
    prefix:
        Leads every generated span identifier (the workload name).
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.origin = perf_counter()
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._serial = itertools.count()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped as a fine span: its self time accrues to ``layer``."""
        state_of = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                state.self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    @contextmanager
    def span(self, name: str, layer: str, ident: Optional[str] = None) -> Iterator[str]:
        """Record a coarse span; its own self time accrues to ``layer``.

        Yields the span's identifier. Must open and close on one thread
        with no ``await`` in between (spans nest by a per-thread stack).
        """
        if ident is None:
            ident = f"{self.prefix}/{name}/{next(self._serial)}"
        state = self._state()
        stack = state.stack
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        before = dict(state.self_s)
        frame = [0.0, ident]
        stack.append(frame)
        start = perf_counter()
        try:
            yield ident
        finally:
            end = perf_counter()
            elapsed = end - start
            stack.pop()
            state.self_s[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            grown = {
                key: value - before.get(key, 0.0)
                for key, value in state.self_s.items()
                if value > before.get(key, 0.0)
            }
            self.spans.append(
                {
                    "name": name,
                    "id": ident,
                    "parent": parent,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "self": grown,
                }
            )

    def spanned(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call is a coarse span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def spans_named(self, name: str) -> List[dict]:
        """Finished coarse spans called ``name``, in completion order."""
        return [span for span in self.spans if span["name"] == name]


class _Patches:
    """Attribute replacements to undo, newest first."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _callback_layer(callback: Callable) -> str:
    target = getattr(callback, "func", callback)  # functools.partial
    module = getattr(target, "__module__", None) or ""
    return "net.resolve" if module.startswith("repro.net") else "proto.handler"


def _patch_functions(patches: _Patches, functions, wrap) -> None:
    """Replace each of ``functions`` by ``wrap(function)`` in every loaded
    ``repro`` module that holds a reference to it."""
    originals = {id(fn): fn for fn in functions}
    wrapped = {key: wrap(fn) for key, fn in originals.items()}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None and value is originals[id(value)]:
                patches.set(module, attr, replacement)


def _install(tracer: Tracer, patches: _Patches) -> None:
    from repro.aggregation import tree
    from repro.core import localization, shares
    from repro.core.clustering import ClusterFormation
    from repro.core.clustering_batched import BatchedClusterFormation
    from repro.core.integrity import ReportAndVerdictPhase
    from repro.core.integrity_batched import BatchedReportAndVerdictPhase
    from repro.core.intracluster import IntraClusterExchange
    from repro.net.fluid import BulkFluidTransport, FluidTransport
    from repro.net.stack import NetworkStack
    from repro.service.service import AggregationService
    from repro.sim.kernel import Simulator

    timed = tracer.timed

    def wrap_callback(callback: Callable) -> Callable:
        return timed(_callback_layer(callback), callback)

    # Kernel: the dispatch loop, and every callback it will fire.
    for attr in ("schedule", "schedule_callback", "schedule_at", "schedule_batch"):
        original = vars(Simulator)[attr]

        def scheduler(self, when, callback, *args, _original=original, **kwargs):
            return _original(self, when, wrap_callback(callback), *args, **kwargs)

        patches.set(Simulator, attr, scheduler)
    patches.set(Simulator, "run", timed("kernel", vars(Simulator)["run"]))

    # Transport: sends, and the handlers/listeners the protocol registers.
    def wrap_handler(handler: Callable) -> Callable:
        if getattr(handler, "_perfbench_traced", False):
            return handler  # a subclass already wrapped it before super()
        traced = timed("proto.handler", handler)
        traced._perfbench_traced = True
        return traced

    for cls in (NetworkStack, FluidTransport, BulkFluidTransport):
        own = vars(cls)
        for attr in ("send", "broadcast", "flush"):
            if attr in own:
                patches.set(cls, attr, timed("net.send", own[attr]))
        if "send_many" in own:
            send_many = timed("net.send", own["send_many"])

            def counted(self, kind, src, dst, size_bytes, _send_many=send_many):
                tracer.counts["net.send_many_rows"] += len(src)
                return _send_many(self, kind, src, dst, size_bytes)

            patches.set(cls, "send_many", counted)
        if "register_handler" in own:

            def register_handler(self, node_id, kind, handler, _original=own["register_handler"]):
                return _original(self, node_id, kind, wrap_handler(handler))

            patches.set(cls, "register_handler", register_handler)
        if "register_overhear" in own:

            def register_overhear(self, node_id, listener, kinds=None, _original=own["register_overhear"]):
                return _original(self, node_id, wrap_handler(listener), kinds)

            patches.set(cls, "register_overhear", register_overhear)

    # Protocol phases (coarse spans).
    for cls, name in (
        (ClusterFormation, "phase.clustering"),
        (BatchedClusterFormation, "phase.clustering"),
        (IntraClusterExchange, "phase.exchange"),
        (ReportAndVerdictPhase, "phase.report"),
        (BatchedReportAndVerdictPhase, "phase.report"),
    ):
        patches.set(cls, "run", tracer.spanned(name, "proto.phase", vars(cls)["run"]))
    _patch_functions(
        patches,
        [tree.build_aggregation_tree],
        lambda fn: tracer.spanned("phase.tree", "proto.phase", fn),
    )

    # Share algebra: every public function of repro.core.shares, wherever
    # it was imported by name.
    algebra = [
        fn
        for name, fn in vars(shares).items()
        if inspect.isfunction(fn)
        and fn.__module__ == shares.__name__
        and not name.startswith("_")
    ]
    _patch_functions(patches, algebra, lambda fn: timed("algebra.shares", fn))

    # Service epochs and the answer cache; localization searches.
    patches.set(
        AggregationService,
        "serve_batch",
        tracer.spanned("round", "round.other", vars(AggregationService)["serve_batch"]),
    )
    patches.set(
        AggregationService,
        "answer_from_cache",
        timed("service.cache", vars(AggregationService)["answer_from_cache"]),
    )
    _patch_functions(
        patches,
        [localization.localize_polluter],
        lambda fn: tracer.spanned("localize", "localize.other", fn),
    )


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers for the duration of the block.

    Only objects built inside the block are fully traced: a simulator
    event scheduled before it, or a handler registered before it, stays
    unwrapped.
    """
    patches = _Patches()
    try:
        _install(tracer, patches)
        yield tracer
    finally:
        patches.restore()
