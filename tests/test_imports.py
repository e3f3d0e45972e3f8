"""Lint: every module-level import of the package is used, and only
``domains.py`` imports qhull."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "elliptic_tubes"
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def unused_imports(source):
    """The names that the module-level imports of ``source`` bind and that
    the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os\nfrom .a import b, c\n__all__ = ['c']\nmath.pi\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def spatial_imports(source):
    """The lines of ``source`` that import ``scipy.spatial``, at module or
    function level."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.spatial" or name.startswith("scipy.spatial.") for name in names):
            lines.append(node.lineno)
    return lines


def test_the_check_sees_a_spatial_import():
    source = ("import scipy.spatial\nimport scipy\n"
              "def f():\n    from scipy import spatial\n    from scipy.spatial import ConvexHull\n")
    assert spatial_imports(source) == [1, 4, 5]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "domains.py"),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_domains_imports_qhull(path):
    assert spatial_imports(path.read_text(encoding="utf-8")) == []
