"""No module under src/ or tests/ imports a name it never uses, or a
third-party module that pyproject.toml does not declare; importing the
CLI loads no test-only dependency."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


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
