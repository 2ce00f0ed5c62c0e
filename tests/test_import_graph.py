"""Every ``repro`` module and def must be used by something other than its tests.

Walks the static import graph (stdlib :mod:`ast`, nothing is imported)
from the library's entry points — the experiment CLI, the example
scripts, the benchmark harnesses and the perfbench scripts — and fails
on any module under ``src/repro`` it never reaches. A module only its own
tests import is dead weight: delete it, or give it a caller.

A package ``__init__``'s re-exports and lazy export tables are not use:
importing a package reaches only the names an importer actually asks
for, so listing a module in ``__all__`` or ``_EXPORTS`` keeps nothing
alive on its own.

One level down, every public top-level function and method under
``src/repro`` must be named by a root file or by some ``src`` module. A
name counts when it appears as an ``ast.Name`` or an attribute, or when
a string constant is the name, whole or as its last dotted part
(``"run"``, ``"Widget.patched"``): ``perfbench/tracing.py`` patches
``Simulator`` and ``AggregationService`` methods by name. A docstring
never counts, not even a ``:meth:`` cross-reference in one: prose that
names a def is not a caller. Dunder methods are exempt.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

def _module_files(src: pathlib.Path = SRC) -> Dict[str, pathlib.Path]:
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _root_files(
    repo: pathlib.Path = REPO, modules: Dict[str, pathlib.Path] = MODULES
) -> List[pathlib.Path]:
    roots = [
        path
        for name, path in modules.items()
        if name == "repro.experiments.cli" or name.endswith(".__main__")
    ]
    roots += sorted((repo / "examples").glob("*.py"))
    roots += sorted((repo / "benchmarks").rglob("*.py"))
    roots += [
        path
        for path in sorted((repo / "perfbench").rglob("*.py"))
        if "tests" not in path.relative_to(repo / "perfbench").parts
    ]
    return roots


def _imports(path: pathlib.Path) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """(module, requested names) per import statement in ``path``,
    function-local ones included; relative imports resolved against the
    module's package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package: List[str] = []
    if SRC in path.parents:
        package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module, tuple(alias.name for alias in node.names)


def _export_source(package: str, name: str) -> Optional[str]:
    """The module a package ``__init__`` takes ``name`` from, statically
    (``from x import name``) or through a lazy ``_EXPORTS`` table."""
    tree = ast.parse(MODULES[package].read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if any((alias.asname or alias.name) == name for alias in node.names):
                return node.module
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Constant) and key.value == name:
                    return value.value
    return None


def reachable_modules() -> Set[str]:
    pending = _root_files()
    reached = {name for name, path in MODULES.items() if path in pending}

    def reach(module: str) -> None:
        parts = module.split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in MODULES and name not in reached:
                reached.add(name)
                if not _is_package(name):
                    pending.append(MODULES[name])

    def reach_name(module: str, name: str) -> None:
        submodule = f"{module}.{name}"
        if submodule in MODULES:
            reach(submodule)
        elif module in MODULES and _is_package(module):
            source = _export_source(module, name)
            if source is not None:
                reach(source)
                reach_name(source, name)

    while pending:
        path = pending.pop()
        for module, names in _imports(path):
            if module.split(".")[0] != "repro":
                continue
            reach(module)
            for name in names:
                reach_name(module, name)
    return reached


def test_every_module_is_reachable_from_an_entry_point() -> None:
    unreached = sorted(set(MODULES) - reachable_modules())
    assert not unreached, (
        f"modules no entry point imports (only their tests do?): {unreached}"
    )


#: Public defs kept although only tests call them: name -> reason.
ALLOWED_UNREFERENCED = {
    "is_failed": "Transport seam member every backend offers (docs/TRANSPORT.md)",
    "reset_accounting": "Transport seam member; its accounting regressions stay pinned",
    "from_jsonl": "Reader for --trace-out files, documented in README and EXPERIMENTS.md",
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> Set[int]:
    """``id()`` of every module, class and function docstring constant."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _referenced_names(path: pathlib.Path) -> Set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.add(node.value)
            names.add(node.value.rpartition(".")[2])
    return names


def _public_defs(path: pathlib.Path) -> Iterator[str]:
    """Qualified names of the top-level functions and top-level classes'
    methods in ``path`` that do not start with an underscore."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _referenced(modules: Dict[str, pathlib.Path], roots: List[pathlib.Path]) -> Set[str]:
    referenced: Set[str] = set()
    for path in {*modules.values(), *roots}:
        referenced |= _referenced_names(path)
    return referenced


def unreferenced_defs(
    modules: Dict[str, pathlib.Path], roots: List[pathlib.Path]
) -> List[str]:
    """``module.qualname`` of every public def in ``modules`` whose name
    neither a root file nor any module references."""
    kept = _referenced(modules, roots) | set(ALLOWED_UNREFERENCED)
    return [
        f"{module}.{qualname}"
        for module, path in modules.items()
        for qualname in _public_defs(path)
        if qualname.rpartition(".")[2] not in kept
    ]


def test_every_public_def_is_referenced_outside_tests() -> None:
    unreferenced = unreferenced_defs(MODULES, _root_files())
    assert not unreferenced, (
        f"public defs only tests reference: {unreferenced}; delete them, "
        f"give them a caller, or move a test oracle into tests/"
    )


def test_allow_list_holds_only_defined_unreferenced_names() -> None:
    defined = {
        qualname.rpartition(".")[2]
        for path in MODULES.values()
        for qualname in _public_defs(path)
    }
    allowed = set(ALLOWED_UNREFERENCED)
    assert allowed <= defined
    assert not allowed & _referenced(MODULES, _root_files())


def _plant(root: pathlib.Path, files: Dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_scanner_flags_a_def_only_a_test_references(tmp_path: pathlib.Path) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": "def spin():\n    pass\n\ndef tested_only():\n    pass\n",
            "examples/demo.py": "from repro.widget import spin\nspin()\n",
            "tests/test_widget.py": "from repro.widget import tested_only\ntested_only()\n",
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == ["repro.widget.tested_only"]


def test_scanner_keeps_a_def_a_root_names_in_a_string(tmp_path: pathlib.Path) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": (
                "class Widget:\n"
                "    def __init__(self):\n        pass\n\n"
                "    def patched(self):\n        pass\n\n"
                "    def _private(self):\n        pass\n"
            ),
            "perfbench/tracing.py": 'PATCHED = ("Widget.patched",)\n',
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == []


def test_scanner_flags_a_def_only_docstrings_name(tmp_path: pathlib.Path) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": (
                '"""Widgets; see :func:`documented` and :func:`mentioned`."""\n\n'
                "def spin():\n    pass\n\n"
                'def documented():\n    """documented() spins nothing."""\n\n'
                "def mentioned():\n    pass\n"
            ),
            "src/repro/other.py": '"""Calls mentioned() elsewhere."""\n',
            "examples/demo.py": (
                '"""Demo: documented, mentioned."""\n'
                "from repro.widget import spin\n"
                "spin()\n"
            ),
            "tests/test_widget.py": (
                "from repro.widget import documented, mentioned\n"
                "documented()\nmentioned()\n"
            ),
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == [
        "repro.widget.documented",
        "repro.widget.mentioned",
    ]


def test_scanner_keeps_a_def_a_root_names_as_a_dotted_string(
    tmp_path: pathlib.Path,
) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": (
                "class Widget:\n"
                "    def patched(self):\n        pass\n\n"
                "    def worded(self):\n        pass\n"
            ),
            "perfbench/tracing.py": (
                'TARGETS = ("repro.widget.Widget.patched", "Widget worded here")\n'
            ),
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == ["repro.widget.Widget.worded"]
