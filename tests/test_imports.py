"""No module under src/ or tests/ imports a name it never uses."""

import ast
import pathlib

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
