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


def _fresh(script: str, *path: Path) -> str:
    """Standard output of ``script`` in a fresh interpreter run from the repository root,
    with ``path`` (then the package's ``src``) in front of the import path."""
    pythonpath = os.pathsep.join(str(p) for p in (*path, _PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, cwd=_PACKAGE.parent.parent,
                          env={**os.environ, "PYTHONPATH": pythonpath}).stdout


def _modules_after(code: str) -> frozenset[str]:
    """``sys.modules`` of a fresh interpreter, run from the repository root, after ``code``."""
    return frozenset(_fresh(f"import sys; {code}; print(' '.join(sys.modules))").split())


def _scipy(modules: frozenset[str]) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


@functools.cache
def _modules_after_fresh_import() -> frozenset[str]:
    """``sys.modules`` of a fresh interpreter after importing every module of the package."""
    names = sorted(p.stem for p in _PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    return _modules_after("import " + ", ".join(f"mfgplan.{name}" for name in names))


def test_scipy_integrate_stays_out_of_the_import_graph():
    assert "scipy.integrate" not in _modules_after_fresh_import()


def test_scipy_optimize_and_sparse_stay_out_of_the_import_graph():
    # no scipy module at all: grid loads LAPACK at the first banded factorisation
    assert _scipy(_modules_after_fresh_import()) == []


@pytest.mark.parametrize("command, config, factors", [
    ("solve", "hughes_constant.yaml", False),
    ("validate", "validate_quadratic.yaml", False),
    ("solve", "planning_sine.yaml", True),
    ("solve", "congestion_sine.yaml", True),
])
def test_only_a_run_that_factors_loads_scipy(tmp_path, command, config, factors):
    argv = [command, f"configs/{config}", "--out", str(tmp_path), "--quiet"]
    loaded = _scipy(_modules_after(f"from mfgplan import cli; assert cli.main({argv!r}) == 0"))
    if factors:  # LAPACK's extension alone, without scipy.linalg's package __init__
        assert "scipy.linalg._flapack" in loaded and "scipy.linalg" not in loaded
    else:
        assert loaded == []


_ROUTINES = ("zpbtrf", "zpbtrs", "dpttrf", "dpttrs")


@pytest.mark.parametrize("scipy_first", [False, True], ids=["helper-first", "scipy-first"])
def test_lapack_returns_the_routines_scipy_exports(scipy_first):
    helper = f"from mfgplan import grid; mine = grid._lapack(*{_ROUTINES!r})"
    scipy_linalg = "from scipy.linalg import lapack"
    steps = [scipy_linalg, helper] if scipy_first else [helper, scipy_linalg]
    check = f"print(all(f is getattr(lapack, n) for f, n in zip(mine, {_ROUTINES!r})))"
    assert _fresh("; ".join([*steps, check])).split() == ["True"]


def test_lapack_names_the_paths_it_tried(tmp_path):
    # a scipy without a linalg folder: no _flapack file next to scipy.__file__
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    script = ("import importlib.machinery\nfrom mfgplan import grid\n"
              "try:\n    grid._lapack('dpttrf')\nexcept ImportError as exc:\n    print(exc)\n"
              "print(*importlib.machinery.EXTENSION_SUFFIXES)")
    message, suffixes = _fresh(script, tmp_path).splitlines()
    tried = [str(tmp_path / "scipy" / "linalg" / f"_flapack{s}") for s in suffixes.split()]
    assert message.startswith("no scipy.linalg._flapack extension")
    assert tried and all(path in message for path in tried)


@pytest.mark.parametrize("command, config, builds", [
    ("validate", "validate_quadratic.yaml", 0),
    ("solve", "hughes_constant.yaml", 1),
])
def test_only_a_run_that_writes_csv_builds_the_formatter_tables(tmp_path, command, config, builds):
    argv = [command, f"configs/{config}", "--out", str(tmp_path), "--quiet"]
    script = (f"from mfgplan import cli; assert cli.main({argv!r}) == 0; "
              "print(cli._tables.cache_info().currsize)")
    assert _fresh(script).split() == [str(builds)]
