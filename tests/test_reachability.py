"""The comparison of the ``reachability`` job (:mod:`tests.reachability_run`).

The job itself runs every entry point under a profile hook and takes
minutes, so tier-1 checks its parts on planted trees: the hook records
what a root runs, also in threads and child interpreters; a def only a
test calls is flagged although the static guard keeps it; structural
members are exempt; and the allow-list names only defs that exist.
"""

from __future__ import annotations

import pathlib

import pytest

from tests import reachability_run
from tests.reachability_run import (
    ALLOWED_UNRUN,
    record,
    stale_allowances,
    unrun_defs,
)
from tests.test_import_graph import (
    MODULES,
    _module_files,
    _plant,
    _public_defs,
    _root_files,
    unreferenced_defs,
)

WIDGET = '''\
import abc
from typing import Protocol


class Widget:
    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)

    @property
    def size(self):
        return len(self.items)


class Sized(Protocol):
    def size(self) -> int: ...


class Shape(abc.ABC):
    @abc.abstractmethod
    def area(self): ...


def spin(shape: Shape = None) -> Sized:
    if shape is not None:
        shape.area()
    widget = Widget()
    assert widget.size == 0
    return widget
'''


def _planted(tmp_path: pathlib.Path, files: dict) -> dict:
    _plant(tmp_path, {"src/repro/__init__.py": "", **files})
    return _module_files(tmp_path / "src")


def _ran(tmp_path: pathlib.Path, root: str):
    return record(
        [("demo", [root])], tmp_path / "src", tmp_path, tmp_path / "work"
    )


def test_job_flags_a_test_only_def_whose_name_is_a_common_word(
    tmp_path: pathlib.Path,
) -> None:
    modules = _planted(
        tmp_path,
        {
            "src/repro/widget.py": WIDGET,
            "examples/demo.py": (
                "from repro.widget import spin\n"
                "spin()\n"
                "set().add(1)\n"
            ),
            "tests/test_widget.py": (
                "from repro.widget import Widget\nWidget().add(1)\n"
            ),
        },
    )
    # ``set().add`` in a root keeps ``Widget.add`` alive statically ...
    assert unreferenced_defs(modules, _root_files(tmp_path, modules)) == []
    # ... but no root runs it. The Protocol member and the abstract
    # method never run either, and are exempt.
    ran = _ran(tmp_path, "examples/demo.py")
    assert unrun_defs(ran, modules) == ["repro.widget.Widget.add"]


def test_hook_records_threads_and_child_interpreters(
    tmp_path: pathlib.Path,
) -> None:
    modules = _planted(
        tmp_path,
        {
            "src/repro/work.py": (
                "def main():\n    pass\n\n"
                "def threaded():\n    pass\n\n"
                "def child():\n    pass\n\n"
                "def never():\n    pass\n"
            ),
            "examples/demo.py": (
                "import subprocess\n"
                "import sys\n"
                "import threading\n\n"
                "from repro import work\n\n"
                "work.main()\n"
                "thread = threading.Thread(target=work.threaded)\n"
                "thread.start()\n"
                "thread.join(60)\n"
                "subprocess.run([sys.executable, '-c', "
                "'from repro import work; work.child()'], check=True)\n"
            ),
        },
    )
    ran = _ran(tmp_path, "examples/demo.py")
    assert unrun_defs(ran, modules) == ["repro.work.never"]


def test_a_failing_root_stops_the_job(tmp_path: pathlib.Path) -> None:
    _planted(tmp_path, {"examples/demo.py": "raise SystemExit(3)\n"})
    with pytest.raises(RuntimeError, match="exited with 3"):
        _ran(tmp_path, "examples/demo.py")


def test_stale_allowances_are_flagged(
    tmp_path: pathlib.Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    modules = _planted(
        tmp_path,
        {
            "src/repro/widget.py": WIDGET,
            "examples/demo.py": "from repro.widget import spin\nspin()\n",
        },
    )
    ran = _ran(tmp_path, "examples/demo.py")
    monkeypatch.setattr(
        reachability_run,
        "ALLOWED_UNRUN",
        {"Widget.add": "kept", "Widget.size": "ran", "Widget.gone": "undefined"},
    )
    assert unrun_defs(ran, modules) == []
    assert stale_allowances(ran, modules) == ["Widget.gone", "Widget.size"]


def test_allow_list_names_public_defs_with_reasons() -> None:
    defined = {qualname for path in MODULES.values() for qualname in _public_defs(path)}
    assert set(ALLOWED_UNRUN) <= defined
    assert all(reason.strip() for reason in ALLOWED_UNRUN.values())
