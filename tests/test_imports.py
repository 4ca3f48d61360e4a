"""No module under src/ or tests/ imports a name it never uses, or a
third-party module that pyproject.toml does not declare; importing the
CLI loads no test-only dependency; every function and class that src/
defines at module level, and every method of those classes, is read by
the program or the benchmark."""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys

import pytest

from biaxial import autodiff as ad

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in the module.

    A name counts as read when it is loaded anywhere (attribute chains
    start with a load of their root name) or listed in `__all__`.
    `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def imported_modules(source: str) -> set:
    """Top-level names of the modules a source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_requirements() -> set:
    """Names of the dependencies and optional dependencies in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    reqs = [*project["dependencies"],
            *(r for extra in project.get("optional-dependencies", {}).values() for r in extra)]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in reqs}


def test_every_third_party_import_is_declared():
    exempt = {*sys.stdlib_module_names, "biaxial",
              *(p.stem for p in (ROOT / "tests").glob("*.py"))}
    declared = declared_requirements()
    undeclared = sorted(f"{path.name}: {name}" for path in MODULES
                        for name in imported_modules(path.read_text(encoding="utf-8"))
                        if name not in exempt and name not in declared)
    assert not undeclared, ", ".join(undeclared)


def test_import_lister_skips_relative_imports():
    source = "import os.path\nimport numpy as np\nfrom a.b import c\nfrom . import d\n"
    assert imported_modules(source) == {"os", "numpy", "a"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line}: {name}" for line, name in unused)


def test_checker_flags_an_unused_name_and_not_a_used_one():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom a.b import c, d\n"
              "__all__ = ['d']\n"
              "def f() -> np.ndarray:\n    return c\n")
    assert unused_imports(source) == [(2, "os")]


def test_cli_import_loads_no_scipy():
    """scipy is a test-only dependency: the program must start without it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biaxial.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _reads(tree) -> list:
    """Every name a tree loads, by name or as an attribute."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node) of each module-level function and class, and
    of each method of such a class except the dunders Python calls."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, _FUNCTIONS)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def unread_definitions(defining: dict, others: list) -> list:
    """`module.name` of each definition in `defining` (module name ->
    source; see `_definitions`) that neither those sources nor the
    `others` read, by name or as an attribute, outside the name's own
    definition."""
    trees = {module: ast.parse(source) for module, source in defining.items()}
    reads = collections.Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        reads.update(_reads(tree))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in _definitions(tree)
            if reads[node.name] == _reads(node).count(node.name)]


def test_every_definition_is_read_by_the_program_or_the_benchmark():
    """A function, class or method that only the tests call is API nobody
    uses. `autodiff.__all__` is exempt: it is the benchmark's op list."""
    exempt = {f"autodiff.{name}" for name in ad.__all__}
    unread = unread_definitions(
        {path.stem: path.read_text(encoding="utf-8") for path in SRC},
        [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))])
    unread = [name for name in unread if name not in exempt]
    assert not unread, ", ".join(unread)


def test_definition_checker_flags_a_name_only_its_own_body_reads():
    source = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class C:\n"
              "    def __init__(self):\n        self.n = 0\n"
              "    def read(self):\n        return self.n\n"
              "    def unread(self):\n        return self.unread()\n"
              "def entry():\n    return used() + x.C().read()\n")
    assert unread_definitions({"m": source}, ["import m\nm.entry()\n"]) == [
        "m.recursive", "m.C.unread"]
    assert unread_definitions({"m": source}, []) == ["m.recursive", "m.C.unread", "m.entry"]
