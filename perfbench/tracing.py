"""Outside-in tracing: wrappers around the public functions of each layer.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each named function by a wrapper in every ``mfgplan`` module that holds a
reference to it (``from .grid import dx_periodic`` makes a second binding,
so every binding is swapped), and :func:`uninstall` puts the originals
back.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> metric prefix; every wrapped function is timed
SPANNED = {
    ("cli", "run"): "cli.run",
    ("cli", "parse_config"): "cli.parse_config",
    ("cli", "write_field_csv"): "cli.write_field_csv",
    ("grid", "dx_periodic"): "grid.dx_periodic",
    ("grid", "dxx_periodic"): "grid.dxx_periodic",
    ("grid", "dt_interior"): "grid.dt_interior",
    ("grid", "dt_transpose"): "grid.dt_transpose",
    ("planning", "minimize"): "planning.minimize",
    ("planning", "objective"): "planning.objective",
    ("planning", "gradient"): "planning.gradient",
    ("planning", "clip_to_floor"): "planning.clip_to_floor",
    ("recovery", "recover"): "recovery.recover",
    ("recovery", "validate_solution"): "recovery.validate_solution",
    ("congestion", "solve_congestion"): "congestion.solve_congestion",
    ("congestion", "inner_phi_solve"): "congestion.inner_phi_solve",
    ("congestion", "inner_q_solve"): "congestion.inner_q_solve",
    ("congestion", "apply_F"): "congestion.apply_F",
    ("congestion", "recover_congestion"): "congestion.recover_congestion",
    ("congestion", "apriori_diagnostics"): "congestion.apriori_diagnostics",
    ("congestion", "cg"): "congestion.cg",
    ("congestion", "root"): "congestion.root",
    ("hughes", "solve_hughes"): "hughes.solve_hughes",
    ("hughes", "hopf_lax"): "hughes.hopf_lax",
    ("hughes", "cumulative_potential"): "hughes.cumulative_potential",
}

# methods of model classes, patched on the class itself
SPANNED_METHODS = {
    ("model", "PerspectiveL0", "value"): "model.PerspectiveL0.value",
    ("model", "PerspectiveL0", "partials"): "model.PerspectiveL0.partials",
}

# called ~10^4 times per congestion solve: counted, not spanned
COUNTED = {("congestion", "regularizer_apply"): "congestion.regularizer_apply"}

# spans whose self time is reported
SELF_TIMED = ("planning.minimize", "congestion.solve_congestion", "hughes.solve_hughes")

# the per-layer metric names, in report order, with units
PER_LAYER = (
    [("cli.parse_config.calls", "count"), ("cli.parse_config.s", "s")]
    + [("cli.write_field_csv." + k, u)
       for k, u in (("calls", "count"), ("s", "s"), ("bytes", "bytes"))]
    + [(f"grid.{f}.{k}", u)
       for f in ("dx_periodic", "dxx_periodic", "dt_interior", "dt_transpose")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"model.PerspectiveL0.{f}.{k}", u)
       for f in ("value", "partials") for k, u in (("calls", "count"), ("s", "s"))]
    + [("planning.minimize.calls", "count"), ("planning.minimize.s", "s"),
       ("planning.minimize.self_s", "s")]
    + [(f"planning.{f}.{k}", u)
       for f in ("objective", "gradient", "clip_to_floor")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("planning.iterations", "count"), ("planning.backtracks", "count"),
       ("planning.stalled", "count"), ("planning.objective_per_iter", "ratio")]
    + [(f"recovery.{f}.{k}", u)
       for f in ("recover", "validate_solution") for k, u in (("calls", "count"), ("s", "s"))]
    + [("congestion.solve_congestion.calls", "count"), ("congestion.solve_congestion.s", "s"),
       ("congestion.solve_congestion.self_s", "s")]
    + [(f"congestion.{f}.{k}", u)
       for f in ("inner_phi_solve", "inner_q_solve", "apply_F", "recover_congestion",
                 "apriori_diagnostics")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("congestion.regularizer_apply.calls", "count")]
    + [(f"congestion.{f}.{k}", u)
       for f in ("cg", "root") for k, u in (("calls", "count"), ("s", "s"))]
    + [("congestion.sweeps", "count"), ("congestion.levels", "count"),
       ("congestion.newton_levels", "count"), ("congestion.picard_ok_ratio", "ratio"),
       ("congestion.floored_nodes", "count")]
    + [("hughes.solve_hughes.calls", "count"), ("hughes.solve_hughes.s", "s"),
       ("hughes.solve_hughes.self_s", "s")]
    + [(f"hughes.{f}.{k}", u)
       for f in ("hopf_lax", "cumulative_potential") for k, u in (("calls", "count"), ("s", "s"))]
    + [("hughes.potential_reuse_ratio", "ratio"), ("trace.overhead_s", "s")]
)


class Tracer:
    """In-memory span recorder plus the counters read off solver reports."""

    def __init__(self):
        # span: (name, start, end, parent span index or -1, trace id)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.trace_id)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _swap_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "mfgplan" and not modname.startswith("mfgplan."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, package) -> None:
        """Wrap every layer function named above, in all of its bindings."""
        hooks = {
            "cli.write_field_csv": self._count_bytes,
            "planning.minimize": self._planning_report,
            "congestion.solve_congestion": self._congestion_report,
        }
        for (mod, attr), name in SPANNED.items():
            original = getattr(getattr(package, mod), attr)
            self._swap_everywhere(original, self.spanned(name, original, hooks.get(name)))
        for (mod, attr), name in COUNTED.items():
            original = getattr(getattr(package, mod), attr)
            self._swap_everywhere(original, self.counted(name, original))
        for (mod, cls_name, attr), name in SPANNED_METHODS.items():
            cls = getattr(getattr(package, mod), cls_name)
            original = vars(cls)[attr]
            self._installed.append((cls, attr, original))
            setattr(cls, attr, self.spanned(name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- report hooks ------------------------------------------------------

    def _count_bytes(self, args, _result) -> None:
        self.counts["cli.write_field_csv.bytes"] += os.path.getsize(args[0])

    def _planning_report(self, _args, report) -> None:
        diag = report.diagnostics
        self.counts["planning.iterations"] += int(report.iterations)
        self.counts["planning.backtracks"] += int(diag["backtracks"])
        self.counts["planning.stalled"] += int(bool(diag["stalled"]))

    def _congestion_report(self, _args, report) -> None:
        per_eps = report.diagnostics["per_eps"]
        self.counts["congestion.sweeps"] += int(report.iterations)
        self.counts["congestion.levels"] += len(per_eps)
        self.counts["congestion.newton_levels"] += sum(bool(d["used_newton"]) for d in per_eps)
        self.counts["congestion.floored_nodes"] += int(report.diagnostics["floored_nodes"])

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """Per span name: call count, inclusive seconds, self seconds.

        Calls are sequential on one thread, so the children of a span never
        overlap and the time they cover is the sum of their durations.
        """
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent, _tid in self.spans:
            calls[name] += 1
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        selft: defaultdict = defaultdict(float)
        for sid, (name, start, end, _parent, _tid) in enumerate(self.spans):
            selft[name] += (end - start) - child[sid]
        return calls, incl, selft

    def metrics(self, passes: int, overhead_s: float) -> dict[str, dict]:
        """Every per-layer metric, averaged per pass over the workload."""
        calls, incl, selft = self.totals()
        values: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls[base] + self.counts[name]
            elif kind == "s":
                values[name] = incl[base]
            elif kind == "self_s":
                values[name] = selft[base]
            else:
                values[name] = self.counts[name]
        values = {k: v / passes for k, v in values.items()}
        values["planning.objective_per_iter"] = _ratio(
            values["planning.objective.calls"], values["planning.iterations"])
        values["congestion.picard_ok_ratio"] = _ratio(
            values["congestion.levels"] - values["congestion.newton_levels"],
            values["congestion.levels"])
        values["hughes.potential_reuse_ratio"] = _ratio(
            values["hughes.hopf_lax.calls"], values["hughes.cumulative_potential.calls"])
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, trace id."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, tid) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "trace": tid}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
