"""Every package name the benchmark's tracer wraps must resolve, and every
report key it reads must be there.

``perfbench/tracing.py`` patches functions and methods of ``mfgplan`` by
name and reads counters off the solvers' reports; a rename or a reshaped
report would otherwise surface only in a traced benchmark run.  The tracer
module is loaded from its file and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mfgplan
from mfgplan.congestion import CongestionSpec, solve_congestion
from mfgplan.grid import Grid
from mfgplan.planning import PlanningSpec, minimize

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", sorted({*tracing.SPANNED, *tracing.COUNTED}))
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"mfgplan.{module}"), attr))


def test_tracer_installs_and_uninstalls_on_the_package():
    # install looks every name up on the real package, the lazily resolved
    # congestion.root and congestion.cg included; uninstall restores every binding
    names = sorted({m for m, _ in tracing.SPANNED} | {m for m, *_ in tracing.SPANNED_METHODS})
    modules = [importlib.import_module(f"mfgplan.{m}") for m in names]
    classes = [(getattr(mfgplan, m), cls, attr) for m, cls, attr in tracing.SPANNED_METHODS]
    before = [dict(vars(module)) for module in modules]
    methods_before = [vars(getattr(module, cls))[attr] for module, cls, attr in classes]
    solve = mfgplan.congestion.solve_congestion
    tracer = tracing.Tracer()
    try:
        tracer.install(mfgplan)
        assert mfgplan.congestion.solve_congestion is not solve
    finally:
        tracer.uninstall()
    for module, saved in zip(modules, before):
        assert all(vars(module)[attr] is value for attr, value in saved.items()), module.__name__
    for (module, cls, attr), saved in zip(classes, methods_before):
        assert vars(getattr(module, cls))[attr] is saved


@pytest.mark.parametrize("module, cls, attr", sorted(tracing.SPANNED_METHODS))
def test_traced_method_resolves(module, cls, attr):
    owner = getattr(importlib.import_module(f"mfgplan.{module}"), cls)
    assert callable(vars(owner)[attr])  # patched on the class itself


def test_report_hooks_read_real_solves():
    g = Grid(nt=7, nx=8, horizon=1.0)
    m0 = 1.0 + 0.1 * np.sin(2 * np.pi * g.x)
    tracer = tracing.Tracer()
    tracer._planning_report((), minimize(PlanningSpec(grid=g, m0=m0)))
    tracer._congestion_report((), solve_congestion(CongestionSpec(grid=g, m0=m0)))
    counts = tracer.counts
    assert counts["planning.iterations"] >= 1 and counts["planning.stalled"] == 0
    # the interpolant misses tol_fp on the sine instance, so Newton-Krylov runs
    assert counts["congestion.levels"] == 1 and counts["congestion.sweeps"] >= 1
    assert counts["congestion.newton_levels"] == 1
    values = tracer.metrics(passes=1, overhead_s=0.0)
    assert values["congestion.levels"]["value"] == 1
    assert values["congestion.picard_ok_ratio"]["value"] == 0.0
