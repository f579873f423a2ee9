"""Every name a package module imports is used, or re-exported through ``__all__``.

No linter ships with the project, so this stands in for the unused-import
check.  An import line marked ``# noqa: F401`` is exempt (a name kept for a
caller outside the module).
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mfgplan"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads\nfrom sys import path  # noqa: F401\n"
    assert unused_imports(source + "loads('1')\n") == ["dumps", "os"]
    assert unused_imports(source + "__all__ = ['dumps']\nos.sep\n") == ["loads"]


@functools.cache
def _modules_after_fresh_import() -> frozenset[str]:
    """``sys.modules`` of a fresh interpreter after importing every entry module."""
    code = ("import sys, mfgplan.cli, mfgplan.hughes, mfgplan.congestion; "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(_PACKAGE.parent)}).stdout
    return frozenset(out.split())


def test_scipy_integrate_stays_out_of_the_import_graph():
    assert "scipy.integrate" not in _modules_after_fresh_import()


def test_scipy_optimize_and_sparse_stay_out_of_the_import_graph():
    loaded = _modules_after_fresh_import()
    assert "scipy.linalg" in loaded
    assert sorted(m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse"))) == []
