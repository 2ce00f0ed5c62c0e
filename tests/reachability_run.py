"""Fail on a public ``repro`` def that no entry point runs.

The static guard in :mod:`tests.test_import_graph` keeps a method alive
when *any* root or ``src`` module names an attribute of the same bare
name, so a method that only tests call survives whenever its name is a
common word (``add``, ``pending``, ``outcome``). This job asks the
running program instead: it runs the entry points listed in
:func:`roots` under a profile hook that records every code object under
``src/repro`` that was called, then fails on each public def that none
of them ran.

The public defs are the static guard's (``_public_defs`` over
``MODULES``: top-level functions and classes and their methods, dunders
and ``_private`` names excluded). Two kinds are exempt by structure:
members of a ``typing.Protocol`` class (a seam description, never
called) and ``@abstractmethod`` stubs. Anything else that no root runs
needs an :data:`ALLOWED_UNRUN` entry that says why it stays; prefer
adding a root that reaches it.

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it also
runs inside child interpreters (the spawned scenarios of
``run_e2e_bench.py``, perfbench's per-workload processes) and survives
into forked ``--jobs`` workers, which dump through a patched
``os._exit``. Each process appends ``file<TAB>first line<TAB>name`` per
code object it ran; a decorated def's code starts at its first
decorator, as the AST reports it.

Not collected by pytest; the ``reachability`` CI job runs it from the
repository root::

    PYTHONPATH=src python -m tests.reachability_run

It takes a few minutes: the hook slows every Python call.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tests.test_import_graph import (
    _INLINE_SCRIPT,
    MODULES,
    REPO,
    SRC,
    _base_names,
    _public_def_nodes,
)

CI = REPO / ".github" / "workflows" / "ci.yml"

_FULL_SCALE = "called by the full-scale benchmarks/test_*.py, which no root runs"
_DEAD_SET = (
    "Transport seam member; the batched engines' dead-node fix (ROADMAP) "
    "reads the dead set through it"
)

#: Public defs kept although no root runs them: qualname -> reason.
ALLOWED_UNRUN: Dict[str, str] = {
    "MessageCounters.by_kind": (
        "input to the golden hash of tests/net/test_bulk_determinism.py"
    ),
    "NetworkStack.is_failed": _DEAD_SET,
    "FluidTransport.is_failed": _DEAD_SET,
    "FluidTransport.degree": (
        "Transport seam member (docs/TRANSPORT.md); the DES stack's runs"
    ),
    "TraceLog.from_jsonl": (
        "reader for --trace-out files, documented in README and EXPERIMENTS.md"
    ),
    "TraceRecord.from_json": "parses one --trace-out line for TraceLog.from_jsonl",
    "TraceLog.enabled": (
        "getter of the property whose setter (run by every TraceLog) swaps "
        "emit; the code reads the flag's plain-attribute mirror, on"
    ),
    "Simulator.discard_pending": (
        "AggregationService's failed-round path; no root fails a served round"
    ),
    "run_serial": _FULL_SCALE,
    "serial_outcomes": _FULL_SCALE,
    "run_threshold_experiment": _FULL_SCALE,
    "recommend_th": _FULL_SCALE,
    "run_strategy_matrix": _FULL_SCALE,
    "DetectionStats.detection_ratio": _FULL_SCALE,
    "DetectionStats.false_alarm_ratio": _FULL_SCALE,
    "Series.add": _FULL_SCALE,
    "render_chart": _FULL_SCALE,
}

#: The profile hook, installed as ``sitecustomize`` in every interpreter
#: a root starts. ``REPRO_REACH_SRC`` is the directory whose code is
#: recorded, ``REPRO_REACH_OUT`` where each process writes its record.
HOOK = '''\
import atexit
import os
import sys
import threading

_SRC = os.environ.get("REPRO_REACH_SRC")
_OUT = os.environ.get("REPRO_REACH_OUT")
_codes = {}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    lines = set()
    for code in list(_codes.values()):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_SRC):
            lines.add(f"{path}\\t{code.co_firstlineno}\\t{code.co_name}\\n")
    with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a") as handle:
        handle.writelines(sorted(lines))


if _SRC and _OUT:
    _exit = os._exit

    def _dump_and_exit(status):
        _dump()
        _exit(status)

    # Registered first, so it runs last among the atexit handlers.
    atexit.register(_dump)
    os._exit = _dump_and_exit
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


def _ci_script(job: str) -> str:
    """The first inline ``python - <<'EOF'`` script of a CI job."""
    text = CI.read_text()
    start = text.index(f"\n  {job}:\n")
    end = re.compile(r"\n  [\w-]+:\n").search(text, start + 1)
    return textwrap.dedent(
        _INLINE_SCRIPT.findall(text[start : end.start() if end else None])[0]
    )


def roots(work: pathlib.Path) -> List[Tuple[str, List[str]]]:
    """``(label, interpreter arguments)`` of every entry point the job
    runs, writing its outputs under ``work``."""
    smoke = work / "service_smoke.py"
    smoke.write_text(_ci_script("service-smoke"))
    cli = ["-m", "repro.experiments"]
    resume = cli + ["run", "T1", "--quick", "--resume", "--out", str(work / "t1")]
    bulk = ["--engine", "batched", "--transport", "fluid-bulk"]
    return [
        (
            "run-all",
            cli + ["run-all", "--quick", "--jobs", "1", "--out", str(work / "all")],
        ),
        *(
            (f"examples/{path.name}", [str(path)])
            for path in sorted((REPO / "examples").glob("*.py"))
        ),
        ("CI service-smoke script", [str(smoke)]),
        (
            "service bench",
            [
                "benchmarks/run_service_bench.py", "--scale", "quick",
                "--repeats", "1", "--output", str(work / "service.json"),
            ],
        ),
        (
            "e2e bench",
            [
                "benchmarks/run_e2e_bench.py", "--scale", "quick",
                "--repeats", "1", "--output", str(work / "e2e.json"),
            ],
        ),
        ("perfbench", ["perfbench/run.py", "--seed", "1", "--seconds", "1"]),
        (
            "F6 traced, scalar DES",
            cli + ["run", "F6", "--quick", "--trace-out", str(work / "traces")],
        ),
        (
            "F6 traced, batched fluid-bulk (an attacked batched round)",
            cli
            + ["run", "F6", "--quick", *bulk, "--trace-out", str(work / "traces-bulk")],
        ),
        ("T1 --resume, cold cache", resume),
        ("T1 --resume, warm cache", resume),
        ("A3 with two forked workers", cli + ["run", "A3", "--quick", "--jobs", "2"]),
        ("F10 on fluid", cli + ["run", "F10", "--quick", "--transport", "fluid"]),
        ("F10 batched on fluid-bulk", cli + ["run", "F10", "--quick", *bulk]),
        (
            "F8 on fluid (reads a fluid energy report)",
            cli + ["run", "F8", "--quick", "--transport", "fluid"],
        ),
    ]


def record(
    commands: Sequence[Tuple[str, Sequence[str]]],
    src: pathlib.Path,
    cwd: pathlib.Path,
    work: pathlib.Path,
) -> Set[Tuple[str, int, str]]:
    """Run each ``(label, arguments)`` with this interpreter under the
    hook, from ``cwd`` with ``src`` on the path; returns
    ``(file, first line, name)`` of every code object under
    ``src/repro`` that any of their processes ran. Raises
    ``RuntimeError`` on the first command that exits non-zero."""
    hook = work / "hook"
    out = work / "ran"
    hook.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(HOOK)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook), str(src)]),
        REPRO_REACH_SRC=os.path.realpath(src / "repro") + os.sep,
        REPRO_REACH_OUT=str(out),
    )
    for label, arguments in commands:
        started = time.perf_counter()
        log = work / "root.log"
        with log.open("w") as handle:
            status = subprocess.run(
                [sys.executable, *arguments],
                cwd=cwd,
                env=env,
                stdout=handle,
                stderr=subprocess.STDOUT,
                check=False,
            ).returncode
        print(f"{time.perf_counter() - started:7.1f}s  {label}", flush=True)
        if status != 0:
            tail = "".join(log.read_text().splitlines(keepends=True)[-30:])
            raise RuntimeError(f"root {label!r} exited with {status}:\n{tail}")
    ran = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, first, name = line.split("\t")
            ran.add((path, int(first), name))
    return ran


def _first_line(node: ast.AST) -> int:
    """The line a def's code object starts at: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _is_structural(node: ast.AST, owner: Optional[ast.ClassDef]) -> bool:
    """A ``typing.Protocol`` member or an ``@abstractmethod``."""
    if owner is not None and "Protocol" in _base_names(owner):
        return True
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def _run_state(
    ran: Set[Tuple[str, int, str]], modules: Dict[str, pathlib.Path]
) -> Iterator[Tuple[str, str, bool]]:
    """``(module, qualname, ran)`` per public def that is not exempt by
    structure (a property's setter is a def of its own)."""
    for module, path in modules.items():
        real = os.path.realpath(path)
        for qualname, node, owner in _public_def_nodes(path):
            if not _is_structural(node, owner):
                yield module, qualname, (real, _first_line(node), node.name) in ran


def unrun_defs(
    ran: Set[Tuple[str, int, str]], modules: Dict[str, pathlib.Path]
) -> List[str]:
    """``module.qualname`` of every public def in ``modules`` that no
    record in ``ran`` shows running, structural exemptions and
    :data:`ALLOWED_UNRUN` aside."""
    return [
        f"{module}.{qualname}"
        for module, qualname, hit in _run_state(ran, modules)
        if not hit and qualname not in ALLOWED_UNRUN
    ]


def stale_allowances(
    ran: Set[Tuple[str, int, str]], modules: Dict[str, pathlib.Path]
) -> List[str]:
    """:data:`ALLOWED_UNRUN` entries that name no public def in
    ``modules`` or name one that ran."""
    unrun = {qualname for _, qualname, hit in _run_state(ran, modules) if not hit}
    return sorted(set(ALLOWED_UNRUN) - unrun)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        work = pathlib.Path(scratch)
        try:
            ran = record(roots(work), SRC, REPO, work)
        except RuntimeError as error:
            print(f"reachability: {error}", file=sys.stderr)
            return 1
    unrun = unrun_defs(ran, MODULES)
    stale = stale_allowances(ran, MODULES)
    for name in unrun:
        print(f"never run: {name}", file=sys.stderr)
    for name in stale:
        print(f"stale ALLOWED_UNRUN entry (undefined, or it ran): {name}", file=sys.stderr)
    if unrun or stale:
        print(
            "reachability: delete each never-run def, give it a root, or add "
            "an ALLOWED_UNRUN entry that says why it stays",
            file=sys.stderr,
        )
        return 1
    print(f"reachability: every public def ran ({len(ALLOWED_UNRUN)} allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
