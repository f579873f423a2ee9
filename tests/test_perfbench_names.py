"""Every package name the benchmark's tracer wraps must resolve.

``perfbench/tracing.py`` patches functions and methods of ``mfgplan`` by
name; a rename in the package would otherwise surface only in a traced
benchmark run.  The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", sorted({*tracing.SPANNED, *tracing.COUNTED}))
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"mfgplan.{module}"), attr))


@pytest.mark.parametrize("module, cls, attr", sorted(tracing.SPANNED_METHODS))
def test_traced_method_resolves(module, cls, attr):
    owner = getattr(importlib.import_module(f"mfgplan.{module}"), cls)
    assert callable(vars(owner)[attr])  # patched on the class itself
