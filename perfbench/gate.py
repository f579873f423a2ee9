"""Correctness gate: every instance's outputs against invariants and references.

Reference values were recorded by ``record_references.py`` from the
unmodified solvers.  Fields are compared through a fingerprint (means,
extrema and a fixed set of probe nodes) rather than bit for bit, and each
tolerance is a multiple of the solver's own stopping tolerance, so a
correct change of algorithm still passes.

A check returns a list of ``(kind, message)`` problems.  ``kind`` is
``"unconverged"`` when the solver itself reported that it gave up, and
``"incorrect"`` when an output disagrees with an invariant or a reference
or the program raised anything else.  Both make the instance fail; only
the second makes the run's outputs incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.jsonl")

# planning stops at a projected-gradient sup-norm of ``tol``; fields and the
# objective must agree with the reference within FIELD_FACTOR * tol
PLANNING_FIELD_FACTOR = 1e2
# congestion stops at a fixed-point residual of ``tol_fp``
CONGESTION_FIELD_FACTOR = 1e1
# hughes has no iteration tolerance: its 70 golden-section steps shrink the
# bracket to ~1e-15 of a cell, so values must agree far above rounding only
HUGHES_ATOL = 1e-9
# the PDE residuals re-differentiate u twice; they may drift by this share
RESIDUAL_RTOL = 0.05
# mass and slice-mean hold by construction up to rounding
MASS_TOL = 1e-9


def load_references(path=REFERENCES) -> dict:
    """``{workload: {input seed: {instance: fingerprint}}}``.

    The file holds one JSON list ``[workload, input seed, instance,
    fingerprint]`` per line.
    """
    refs: dict = {}
    with open(path) as fh:
        for line in fh:
            workload, seed, instance, fp = json.loads(line)
            refs.setdefault(workload, {}).setdefault(str(seed), {})[instance] = fp
    return refs


def save_references(refs: dict, path=REFERENCES) -> None:
    with open(path, "w") as fh:
        for workload in sorted(refs):
            for seed in sorted(refs[workload], key=int):
                for instance, fp in sorted(refs[workload][seed].items()):
                    fh.write(json.dumps([workload, int(seed), instance, fp]) + "\n")


def read_field(path) -> np.ndarray:
    """Values of a ``write_field_csv`` file (header row and time column dropped)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def read_series(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def _field_print(f: np.ndarray) -> list[float]:
    nt, nx = f.shape
    probes = [f[i, j] for i in (nt // 4, nt // 2, (3 * nt) // 4)
              for j in (0, nx // 4, nx // 2, (3 * nx) // 4)]
    return _rounded((f.mean(), np.abs(f).mean(), f.max(), f.min(), *probes))


def _series_print(q: np.ndarray) -> list[float]:
    return _rounded((q.mean(), q.max(), q.min(), q[q.size // 2]))


def _rounded(values) -> list[float]:
    # 13 significant digits sit far below every tolerance used here
    return [float(f"{v:.13g}") for v in values]


FIELDS = {
    "planning": ("phi", "u", "m"),
    "congestion": ("phi", "u", "m"),
    "hughes": ("phi", "m"),
}


def fingerprint(mode: str, out: Path) -> dict:
    """The compared summary of one instance's output directory."""
    report = json.loads((out / "report.json").read_text())
    fp = {f: _field_print(read_field(out / f"solution_{f}.csv")) for f in FIELDS[mode]}
    if mode != "hughes":
        fp["q"] = _series_print(read_series(out / "solution_q.csv"))
    if mode == "planning":
        fp["objective"] = _rounded([report["objective"]])
        fp["residual_hj_sup"] = _rounded([report["residuals"]["residual_hj_sup"]])
        fp["residual_fp_sup"] = _rounded([report["residuals"]["residual_fp_sup"]])
    return fp


def _compare(fp: dict, ref: dict, atol: float) -> list[tuple[str, str]]:
    problems = []
    for key, ref_vals in ref.items():
        vals = np.asarray(fp[key])
        ref_vals = np.asarray(ref_vals)
        if key.startswith("residual_"):
            # discretization residuals: may shrink, may grow only a little
            limit = RESIDUAL_RTOL * np.abs(ref_vals) + atol
            err = vals - ref_vals
        else:
            limit = atol * np.maximum(1.0, np.abs(ref_vals))
            err = np.abs(vals - ref_vals)
        if not np.all(err <= limit):
            k = int(np.argmax(err - limit))
            problems.append(("incorrect", f"{key}[{k}] = {vals[k]:.17g}, reference "
                             f"{ref_vals[k]:.17g}, tolerance {limit[k]:.3g}"))
    return problems


def _raised(exc: Exception) -> list:
    # ValueError and RuntimeError are how the solvers report that they gave
    # up (``mfgplan solve`` exits 1 on them); anything else is a defect
    kind = "unconverged" if isinstance(exc, (ValueError, RuntimeError)) else "incorrect"
    return [(kind, f"raised {type(exc).__name__}: {exc}")]


def check_instance(mode: str, out: Path, rc, meta: dict, ref: dict | None) -> list:
    """Problems with one instance; ``rc`` is ``cli.run``'s status or what it raised."""
    if isinstance(rc, Exception):
        return _raised(rc)
    if not (out / "report.json").exists():
        return [("incorrect", "no report.json written")]
    report = json.loads((out / "report.json").read_text())
    problems = []
    if rc != 0 or not report.get("converged", False):
        problems.append(("unconverged", f"solver reports converged="
                         f"{report.get('converged')} (exit status {rc})"))
    fp = fingerprint(mode, out)

    if mode == "planning":
        atol = PLANNING_FIELD_FACTOR * meta["tol"]
        diag = report["diagnostics"]
        res = report["residuals"]
        for name, value in (("mass_defect", diag["mass_defect"]),
                            ("slice_mean_defect", diag["slice_mean_defect"]),
                            ("recovered mass_defect", res["mass_defect"])):
            if not value <= MASS_TOL:
                problems.append(("incorrect", f"{name} {value:.3e} > {MASS_TOL:g}"))
        if not res["min_density"] > 0.0:
            problems.append(("incorrect", f"min_density {res['min_density']:.3e} <= 0"))
    elif mode == "congestion":
        atol = CONGESTION_FIELD_FACTOR * meta["tol_fp"]
        fp_res = report["fp_residual_sup"]
        if not fp_res <= meta["tol_fp"]:
            problems.append(("unconverged", f"fp_residual_sup {fp_res:.3e} > tol_fp "
                             f"{meta['tol_fp']:g}"))
    else:
        atol = HUGHES_ATOL
        lo, hi = report["density_range"]
        if lo < meta["rho_lo"] - HUGHES_ATOL or hi > meta["rho_hi"] + HUGHES_ATOL:
            problems.append(("incorrect", f"density range [{lo:.17g}, {hi:.17g}] leaves "
                             f"the data's [{meta['rho_lo']:.17g}, {meta['rho_hi']:.17g}]"))

    if ref is None:
        problems.append(("incorrect", "no reference recorded for this instance"))
    else:
        problems += _compare(fp, ref, atol)
    return problems


def check_query(value, expected: float) -> list:
    """A point query must reproduce the window solve's value at that node.

    The window solve already answered this query, so a query that raises,
    whatever it raises, is incorrect rather than unconverged.
    """
    if isinstance(value, Exception):
        return [("incorrect", f"raised {type(value).__name__}: {value}")]
    if not abs(value - expected) <= HUGHES_ATOL * max(1.0, abs(expected)):
        return [("incorrect", f"value {value:.17g}, window solve {expected:.17g}")]
    return []
