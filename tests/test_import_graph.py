"""Every ``repro`` module must be used by something other than its tests.

Walks the static import graph (stdlib :mod:`ast`, nothing is imported)
from the library's entry points — the experiment CLI, the example
scripts, the benchmark harnesses and the perfbench scripts — and fails
on any module under ``src/repro`` it never reaches. A module only its own
tests import is dead weight: delete it, or give it a caller.

A package ``__init__``'s re-exports and lazy export tables are not use:
importing a package reaches only the names an importer actually asks
for, so listing a module in ``__all__`` or ``_EXPORTS`` keeps nothing
alive on its own.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Modules allowed to stay unreached. ``repro.core.operator`` is the older
#: ``AggregationService``, waiting to be folded into ``repro.service``
#: (ROADMAP, "One `AggregationService`").
EXEMPT = {"repro.core.operator"}


def _module_files() -> Dict[str, pathlib.Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _root_files() -> List[pathlib.Path]:
    roots = [MODULES["repro.experiments.cli"]]
    roots += [path for name, path in MODULES.items() if name.endswith(".__main__")]
    roots += sorted((REPO / "examples").glob("*.py"))
    roots += sorted((REPO / "benchmarks").rglob("*.py"))
    roots += [
        path
        for path in sorted((REPO / "perfbench").rglob("*.py"))
        if "tests" not in path.relative_to(REPO / "perfbench").parts
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
    unreached = sorted(set(MODULES) - reachable_modules() - EXEMPT)
    assert not unreached, (
        f"modules no entry point imports (only their tests do?): {unreached}"
    )


def test_exemptions_are_still_needed() -> None:
    assert EXEMPT <= set(MODULES)
    assert not EXEMPT & reachable_modules()
