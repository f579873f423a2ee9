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
