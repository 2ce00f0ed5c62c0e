"""Every ``repro`` module, def and option must be used by something other
than its tests.

Walks the static import graph (stdlib :mod:`ast`, nothing is imported)
from the library's entry points — the experiment CLI, the example
scripts, the benchmark harnesses, the perfbench scripts and the inline
``python - <<'EOF'`` scripts of the CI workflows — and fails on any module
under ``src/repro`` it never reaches. A module only its own tests import
is dead weight: delete it, or give it a caller.

A package ``__init__``'s re-exports and lazy export tables are not use:
importing a package reaches only the names an importer actually asks
for, so listing a module in ``__all__`` or ``_EXPORTS`` keeps nothing
alive on its own.

One level down, every public top-level function and class, and every
public method of a top-level class, under ``src/repro`` must be named by
a root or by some ``src`` module. A name counts when it appears as an
``ast.Name`` or an attribute, or when a string constant is the name,
whole or as its last dotted part (``"run"``, ``"Widget.patched"``):
``perfbench/tracing.py`` patches ``Simulator`` and
``AggregationService`` methods by name. A docstring never counts, not
even a ``:meth:`` cross-reference in one: prose that names a def is not
a caller. Neither do the strings of an ``__all__`` or ``_EXPORTS``
table, in any module. Dunder methods are exempt.

One more level down, every parameter with a default on those functions
and methods, and on the top-level classes' ``__init__``, must be passed
by some call in a root or a ``src`` module, by keyword or by position.
Calls match by name: ``f(...)`` and ``x.f(...)`` for ``f``; for an
``__init__``, a call to its class or to any subclass that inherits it,
``cls(...)`` inside such a class, and ``super().__init__(...)`` from a
direct subclass. A call that unpacks ``*args`` or ``**kwargs`` passes
every parameter. An option no caller sets is one value: inline it, or
make it a module constant when it is a tunable.
"""

from __future__ import annotations

import ast
import pathlib
import re
import textwrap
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: A root: a file, or the text of an inline script in the CI workflow.
Root = Union[pathlib.Path, str]

_INLINE_SCRIPT = re.compile(r"python - <<'EOF'\n(.*?)\n[ ]*EOF\n", re.DOTALL)


def _parse(root: Root) -> ast.Module:
    if isinstance(root, str):
        return ast.parse(root)
    return ast.parse(root.read_text(), filename=str(root))

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
) -> List[Root]:
    roots: List[Root] = [
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
    for workflow in sorted((repo / ".github" / "workflows").glob("*.yml")):
        roots += [
            textwrap.dedent(script)
            for script in _INLINE_SCRIPT.findall(workflow.read_text())
        ]
    return roots


def _imports(root: Root) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """(module, requested names) per import statement in ``root``,
    function-local ones included; relative imports resolved against the
    module's package."""
    tree = _parse(root)
    package: List[str] = []
    if isinstance(root, pathlib.Path) and SRC in root.parents:
        package = list(root.relative_to(SRC).with_suffix("").parts[:-1])
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

#: Defaulted parameters kept although no caller outside tests passes
#: them: ``"qualname(parameter)"`` -> reason.
ALLOWED_UNSET = {
    "IcpdaProtocol.__init__(trace)": (
        "Traced rounds are the byte-identity reference of "
        "tests/net/test_hotpath_determinism.py"
    ),
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_EXPORT_TABLES = {"__all__", "_EXPORTS"}


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


def _export_tables(tree: ast.Module) -> Set[int]:
    """``id()`` of every node inside a top-level ``__all__`` or
    ``_EXPORTS`` assignment's value."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(t, ast.Name) and t.id in _EXPORT_TABLES for t in targets
            ) and node.value is not None:
                found.update(id(inner) for inner in ast.walk(node.value))
    return found


def _referenced_names(root: Root) -> Set[str]:
    tree = _parse(root)
    ignored = _docstrings(tree) | _export_tables(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in ignored
        ):
            names.add(node.value)
            names.add(node.value.rpartition(".")[2])
    return names


def _public_defs(path: pathlib.Path) -> Iterator[str]:
    """Qualified names of the top-level functions and classes in ``path``
    and of the top-level classes' methods that do not start with an
    underscore."""
    for node in _parse(path).body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith(
            "_"
        ):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _referenced(modules: Dict[str, pathlib.Path], roots: List[Root]) -> Set[str]:
    referenced: Set[str] = set()
    for root in {*modules.values(), *roots}:
        referenced |= _referenced_names(root)
    return referenced


def unreferenced_defs(modules: Dict[str, pathlib.Path], roots: List[Root]) -> List[str]:
    """``module.qualname`` of every public def in ``modules`` whose name
    neither a root file nor any module references."""
    kept = _referenced(modules, roots) | set(ALLOWED_UNREFERENCED)
    return [
        f"{module}.{qualname}"
        for module, path in modules.items()
        for qualname in _public_defs(path)
        if qualname.rpartition(".")[2] not in kept
    ]


def _is_bound(function: ast.AST) -> bool:
    return not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )


def _defaulted_parameters(
    path: pathlib.Path,
) -> Iterator[Tuple[str, str, Optional[int]]]:
    """``(qualname, parameter, position)`` of each parameter with a
    default on the public top-level functions, the public methods and the
    ``__init__`` of the top-level classes in ``path``. ``position`` is the
    parameter's positional slot after ``self``/``cls``, ``None`` when it
    is keyword-only."""
    for node in _parse(path).body:
        if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
            members = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            members = [
                (f"{node.name}.{item.name}", item, int(_is_bound(item)))
                for item in node.body
                if isinstance(item, _FUNCTIONS)
                and (item.name == "__init__" or not item.name.startswith("_"))
            ]
        else:
            continue
        for qualname, function, skip in members:
            args = function.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                yield qualname, arg.arg, index - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualname, arg.arg, None


class _Passed:
    """What the calls to one name pass: keywords, the most positional
    arguments, and whether any call unpacks ``*args``/``**kwargs``."""

    def __init__(self) -> None:
        self.keywords: Set[str] = set()
        self.positions = 0
        self.unpacks = False

    def add(self, call: ast.Call) -> None:
        self.keywords.update(k.arg for k in call.keywords if k.arg is not None)
        self.positions = max(self.positions, len(call.args))
        self.unpacks |= any(k.arg is None for k in call.keywords) or any(
            isinstance(a, ast.Starred) for a in call.args
        )

    def passes(self, parameter: str, position: Optional[int]) -> bool:
        return (
            self.unpacks
            or parameter in self.keywords
            or (position is not None and position < self.positions)
        )


def _base_names(node: ast.ClassDef) -> List[str]:
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


def _calls(trees: List[ast.Module]) -> Dict[str, _Passed]:
    """Calls by callee name: ``f(...)`` and ``x.f(...)`` under ``"f"``;
    ``cls(...)`` inside class ``C`` under ``"C"``; ``super().__init__(...)``
    inside class ``C`` under ``"super C"``."""
    calls: Dict[str, _Passed] = {}

    def visit(node: ast.AST, owner: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            key = None
            if isinstance(func, ast.Name):
                key = owner if func.id == "cls" and owner else func.id
            elif isinstance(func, ast.Attribute):
                key = func.attr
                if (
                    func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"
                    and owner
                ):
                    key = f"super {owner}"
            if key is not None:
                calls.setdefault(key, _Passed()).add(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in trees:
        visit(tree, None)
    return calls


def _unset(
    modules: Dict[str, pathlib.Path], roots: List[Root]
) -> List[Tuple[str, str]]:
    """``(module, "qualname(parameter)")`` of every defaulted parameter on
    a public def in ``modules`` that no call in a root or a module passes."""
    trees = [_parse(source) for source in {*modules.values(), *roots}]
    calls = _calls(trees)
    bases: Dict[str, List[str]] = {}
    has_init: Set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = _base_names(node)
                if any(
                    isinstance(item, _FUNCTIONS) and item.name == "__init__"
                    for item in node.body
                ):
                    has_init.add(node.name)

    def init_owner(name: str) -> Optional[str]:
        """The class whose ``__init__`` a call to ``name(...)`` runs."""
        if name in has_init:
            return name
        for base in bases.get(name, ()):
            owner = init_owner(base)
            if owner is not None:
                return owner
        return None

    def callers(qualname: str) -> Iterator[_Passed]:
        owner, _, member = qualname.rpartition(".")
        if member != "__init__":
            if member in calls:
                yield calls[member]
            return
        for name in bases:
            if init_owner(name) == owner and name in calls:
                yield calls[name]
            if f"super {name}" in calls and any(
                init_owner(base) == owner for base in bases[name]
            ):
                yield calls[f"super {name}"]

    return [
        (module, f"{qualname}({parameter})")
        for module, path in modules.items()
        for qualname, parameter, position in _defaulted_parameters(path)
        if not any(p.passes(parameter, position) for p in callers(qualname))
    ]


def unset_parameters(modules: Dict[str, pathlib.Path], roots: List[Root]) -> List[str]:
    """``module.qualname(parameter)`` of every defaulted parameter on a
    public def in ``modules`` that no call in a root or a module passes."""
    return [
        f"{module}.{entry}"
        for module, entry in _unset(modules, roots)
        if entry not in ALLOWED_UNSET
    ]


def test_every_public_def_is_referenced_outside_tests() -> None:
    unreferenced = unreferenced_defs(MODULES, _root_files())
    assert not unreferenced, (
        f"public defs only tests reference: {unreferenced}; delete them, "
        f"give them a caller, or move a test oracle into tests/"
    )


def test_every_defaulted_parameter_is_passed_outside_tests() -> None:
    unset = unset_parameters(MODULES, _root_files())
    assert not unset, (
        f"defaulted parameters no caller outside tests passes: {unset}; "
        f"inline the default (a module constant if it is a tunable) or "
        f"give them a caller"
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
    parameters = {
        f"{qualname}({parameter})"
        for path in MODULES.values()
        for qualname, parameter, _ in _defaulted_parameters(path)
    }
    unset = {entry for _, entry in _unset(MODULES, _root_files())}
    assert set(ALLOWED_UNSET) <= parameters & unset


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
            "perfbench/tracing.py": (
                "from repro import widget\n"
                "TARGET = widget.Widget\n"
                'PATCHED = ("Widget.patched",)\n'
            ),
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
                "from repro import widget\n"
                "TARGET = widget.Widget\n"
                'TARGETS = ("repro.widget.Widget.patched", "Widget worded here")\n'
            ),
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == ["repro.widget.Widget.worded"]


def test_scanner_flags_a_def_only_an_export_table_names(tmp_path: pathlib.Path) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": (
                '_EXPORTS = {"Exported": "repro.widget", "spin": "repro.widget"}\n'
                '__all__ = ["listed", *_EXPORTS]\n'
            ),
            "src/repro/widget.py": (
                "def spin():\n    pass\n\n"
                "def listed():\n    pass\n\n"
                "class Exported:\n    pass\n"
            ),
            "examples/demo.py": "import repro\nrepro.spin()\n",
            "tests/test_widget.py": (
                "from repro.widget import Exported, listed\nlisted()\nExported()\n"
            ),
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == [
        "repro.widget.listed",
        "repro.widget.Exported",
    ]


def test_scanner_flags_a_class_only_docstrings_name(tmp_path: pathlib.Path) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": (
                "class Scheme:\n    pass\n\n"
                "class Used:\n"
                '    """Takes any :class:`Scheme`."""\n'
            ),
            "examples/demo.py": "from repro.widget import Used\nUsed()\n",
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unreferenced_defs(modules, roots) == ["repro.widget.Scheme"]


def test_scanner_flags_a_parameter_only_a_test_passes(tmp_path: pathlib.Path) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": (
                "def spin(speed=1, *, direction='cw', _private=0):\n    pass\n\n"
                "class Wheel:\n"
                "    def __init__(self, size=1, color='red'):\n        pass\n\n"
                "    def turn(self, angle=90):\n        pass\n"
            ),
            "examples/demo.py": (
                "from repro.widget import Wheel, spin\n"
                "spin(speed=2)\n"
                "Wheel(3).turn()\n"
            ),
            "tests/test_widget.py": (
                "from repro.widget import Wheel, spin\n"
                "spin(direction='ccw')\n"
                "Wheel(color='blue').turn(45)\n"
            ),
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unset_parameters(modules, roots) == [
        "repro.widget.spin(direction)",
        "repro.widget.spin(_private)",
        "repro.widget.Wheel.__init__(color)",
        "repro.widget.Wheel.turn(angle)",
    ]


def test_scanner_keeps_parameters_callers_pass_in_any_form(
    tmp_path: pathlib.Path,
) -> None:
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/widget.py": (
                "class Base:\n"
                "    def __init__(self, a=1, b=2, c=3, d=4):\n        pass\n\n"
                "class Child(Base):\n"
                "    def __init__(self, e=5):\n"
                "        super().__init__(d=e)\n\n"
                "class Leaf(Base):\n"
                "    @classmethod\n"
                "    def make(cls):\n"
                "        return cls(c=0)\n\n"
                "    @staticmethod\n"
                "    def scale(factor=1):\n        pass\n\n"
                "def spin(x=1, y=2):\n    pass\n\n"
                "def forward(p=1, q=2):\n    pass\n\n"
                "def tune(level=0):\n    pass\n\n"
                "def build(**options):\n"
                "    Base(b=0)\n"
                "    forward(**options)\n"
            ),
            "examples/demo.py": (
                "from repro.widget import Child, Leaf, build, spin\n"
                "Leaf(0)\n"
                "Leaf.make()\n"
                "Leaf.scale(2)\n"
                "Child(e=1)\n"
                "spin(1, 2)\n"
                "build()\n"
            ),
            ".github/workflows/ci.yml": (
                "jobs:\n"
                "  smoke:\n"
                "    steps:\n"
                "      - run: |\n"
                "          python - <<'EOF'\n"
                "          from repro.widget import tune\n"
                "          tune(level=2)\n"
                "          EOF\n"
            ),
        },
    )
    modules = _module_files(tmp_path / "src")
    roots = _root_files(tmp_path, modules)
    assert unset_parameters(modules, roots) == []
