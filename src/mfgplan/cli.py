"""Batch front end: config-driven runs with deterministic CSV/JSON artifacts.

A run is described by a small YAML document with a ``schema_version``, a
``mode`` (planning, congestion, hughes, or validate), and exactly one block
named after that mode.  ``parse_config`` turns the document into fully
validated solver specs, reporting parse errors with line/column, schema
violations with the offending field path, and range violations with the
field name.  ``run`` dispatches to the solvers and writes, in the output
directory:

    solution_phi.csv / solution_q.csv / solution_u.csv / solution_m.csv
        row = time node, column = space node, header row of x-coordinates
        (hughes runs have no value function or gauge, so only phi and the
        density file are produced there),
    report.json
        structured summary: convergence flags, traces, residual norms,
        timings,
    diagnostics.csv
        per-iteration trace.

Everything numeric is written at 17 significant digits so that re-running
an identical config byte-reproduces the CSV files; timings live only in
report.json.  Exit codes: 0 converged/passed, 2 flagged non-convergence or
failed assumptions, 1 hard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .congestion import CongestionSpec, solve_congestion
from .grid import Grid
from .hughes import CongestionSpeed, HughesSpec, LinearSpeed, solve_hughes
from .model import (
    Coupling,
    MFGModel,
    build_model,
    check_assumptions,
    cosine_potential,
    power_coupling,
    power_hamiltonian,
    quadratic_coupling,
    quadratic_hamiltonian,
    zero_potential,
)
from .planning import PlanningSpec, minimize
from .recovery import recover, validate_solution

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "run",
    "run_validation",
    "write_field_csv",
    "write_series_csv",
    "read_field_csv",
    "read_series_csv",
    "main",
]

SCHEMA_VERSION = 1
MODES = ("planning", "congestion", "hughes", "validate")


class ConfigError(Exception):
    """Any config problem: parse, schema, or range."""


@dataclass
class RunConfig:
    """Validated run description; ``spec`` is the ready-to-solve object."""

    schema_version: int
    mode: str
    seed: int
    output_dir: Path
    spec: object
    raw: dict


# ---------------------------------------------------------------------------
# schema helpers


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"schema violation at {path}: missing required key {key!r}")
    return block[key]


def _reject_unknown(block: dict, allowed: set[str], path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"schema violation at {path}.{key}: unknown key")


def _number(value, path: str, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"schema violation at {path}: expected a number, got {value!r}")
    v = float(value)
    if lo is not None and (v <= lo if lo_open else v < lo):
        bracket = "(" if lo_open else "["
        raise ConfigError(f"range violation at {path}: {v:g} outside {bracket}{lo:g}, ...")
    if hi is not None and (v >= hi if hi_open else v > hi):
        bracket = ")" if hi_open else "]"
        raise ConfigError(f"range violation at {path}: {v:g} outside ..., {hi:g}{bracket}")
    return v


def _integer(value, path: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"schema violation at {path}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"range violation at {path}: {value} below minimum {lo}")
    return value


def _as_block(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"schema violation at {path}: expected a mapping, got {value!r}")
    return value


def _grid_from(block: dict, path: str) -> Grid:
    block = _as_block(block, path)
    _reject_unknown(block, {"nt", "nx", "horizon"}, path)
    nt = _integer(block.get("nt", 17), f"{path}.nt", lo=3)
    nx = _integer(block.get("nx", 32), f"{path}.nx", lo=4)
    horizon = _number(block.get("horizon", 1.0), f"{path}.horizon", lo=0.0, lo_open=True)
    return Grid(nt=nt, nx=nx, horizon=horizon)


def _density_from(entry, grid: Grid, path: str) -> np.ndarray:
    """Density menu: uniform | sine | cosine | touching | samples."""
    x = grid.x
    if entry == "uniform":
        return np.ones(grid.nx)
    block = _as_block(entry, path)
    kind = _require(block, "type", path)
    if kind == "uniform":
        _reject_unknown(block, {"type"}, path)
        return np.ones(grid.nx)
    if kind in ("sine", "cosine"):
        _reject_unknown(block, {"type", "amplitude", "mode"}, path)
        amp = _number(block.get("amplitude", 0.1), f"{path}.amplitude",
                      lo=-1.0, hi=1.0, lo_open=True, hi_open=True)
        mode = _integer(block.get("mode", 1), f"{path}.mode", lo=1)
        wave = np.sin if kind == "sine" else np.cos
        return 1.0 + amp * wave(2.0 * np.pi * mode * x)
    if kind == "touching":
        # pinned to zero at x = 0; unit mass is exact on the periodic lattice
        _reject_unknown(block, {"type"}, path)
        return 1.0 - np.cos(2.0 * np.pi * x)
    if kind == "samples":
        _reject_unknown(block, {"type", "values"}, path)
        values = _require(block, "values", path)
        arr = np.asarray(values, dtype=float)
        if arr.shape != (grid.nx,):
            raise ConfigError(
                f"schema violation at {path}.values: expected {grid.nx} samples, got {arr.shape}"
            )
        return arr
    raise ConfigError(f"schema violation at {path}.type: unknown density type {kind!r}")


@dataclass
class ValidationTarget:
    """The model and endpoint densities of a planning or validate block."""

    model: MFGModel
    grid: Grid
    m0: np.ndarray
    mT: np.ndarray


_PLANNING_KEYS = {
    "hamiltonian", "coupling", "potential", "m0", "mT",
    "order", "tol", "floor", "max_iters", "step0",
}


def _target_from(block: dict, grid: Grid, path: str) -> ValidationTarget:
    """Parse the keys planning and validate blocks share; reject unknown ones."""
    block = _as_block(block, path)
    _reject_unknown(block, _PLANNING_KEYS, path)

    ham_entry = block.get("hamiltonian", "quadratic")
    if ham_entry == "quadratic":
        ham = quadratic_hamiltonian()
    else:
        hb = _as_block(ham_entry, f"{path}.hamiltonian")
        _reject_unknown(hb, {"type", "alpha"}, f"{path}.hamiltonian")
        if _require(hb, "type", f"{path}.hamiltonian") != "power":
            raise ConfigError(
                f"schema violation at {path}.hamiltonian.type: expected quadratic or power"
            )
        alpha = _number(hb.get("alpha", 2.0), f"{path}.hamiltonian.alpha", lo=1.0, lo_open=True)
        ham = power_hamiltonian(alpha)

    coup_entry = block.get("coupling", "quadratic")
    if coup_entry == "quadratic":
        coup = quadratic_coupling()
    elif coup_entry == "linear":
        # deliberately fails the strict-convexity assumption; useful to
        # demonstrate the validator, rejected by the solvers' own checks
        coup = Coupling(
            G=lambda z: np.asarray(z, dtype=float).copy(),
            g=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        )
    else:
        cb = _as_block(coup_entry, f"{path}.coupling")
        _reject_unknown(cb, {"type", "gamma"}, f"{path}.coupling")
        if _require(cb, "type", f"{path}.coupling") != "power":
            raise ConfigError(
                f"schema violation at {path}.coupling.type: expected quadratic, linear, or power"
            )
        gamma = _number(cb.get("gamma", 2.0), f"{path}.coupling.gamma", lo=1.0, lo_open=True)
        coup = power_coupling(gamma)

    pot_entry = block.get("potential", "zero")
    if pot_entry == "zero":
        pot = zero_potential()
    else:
        pb = _as_block(pot_entry, f"{path}.potential")
        _reject_unknown(pb, {"type", "amplitude", "frequency"}, f"{path}.potential")
        if _require(pb, "type", f"{path}.potential") != "cosine":
            raise ConfigError(
                f"schema violation at {path}.potential.type: expected zero or cosine"
            )
        amp = _number(pb.get("amplitude", 1.0), f"{path}.potential.amplitude")
        freq = _integer(pb.get("frequency", 1), f"{path}.potential.frequency", lo=1)
        pot = cosine_potential(amplitude=amp, frequency=freq)

    return ValidationTarget(
        model=build_model(hamiltonian=ham, coupling=coup, potential=pot),
        grid=grid,
        m0=_density_from(_require(block, "m0", path), grid, f"{path}.m0"),
        mT=_density_from(_require(block, "mT", path), grid, f"{path}.mT"),
    )


def _planning_from(block: dict, grid: Grid, path: str) -> PlanningSpec:
    target = _target_from(block, grid, path)
    order = _integer(block.get("order", 0), f"{path}.order")
    if order not in (0, 1):
        raise ConfigError(f"range violation at {path}.order: must be 0 or 1, got {order}")
    try:
        return PlanningSpec(
            grid=grid,
            model=target.model,
            m0=target.m0,
            mT=target.mT,
            order=order,
            max_iters=_integer(block.get("max_iters", 20000), f"{path}.max_iters", lo=1),
            tol=_number(block.get("tol", 1e-8), f"{path}.tol", lo=0.0, lo_open=True),
            floor=_number(block.get("floor", 1e-8), f"{path}.floor", lo=0.0),
            step0=_number(block.get("step0", 1.0), f"{path}.step0", lo=0.0, lo_open=True),
        )
    except ValueError as exc:
        raise ConfigError(f"range violation in {path}: {exc}") from exc


_CONGESTION_KEYS = {
    "alpha", "mu", "m0", "mT", "tol_fp", "eps_schedule",
}


def _congestion_from(block: dict, grid: Grid, path: str) -> CongestionSpec:
    block = _as_block(block, path)
    _reject_unknown(block, _CONGESTION_KEYS, path)
    alpha = _number(block.get("alpha", 0.5), f"{path}.alpha", lo=0.0, hi=2.0,
                    lo_open=True, hi_open=True)
    mu = _number(block.get("mu", 1.0), f"{path}.mu", lo=0.0, lo_open=True)
    m0 = _density_from(_require(block, "m0", path), grid, f"{path}.m0")
    mT = _density_from(_require(block, "mT", path), grid, f"{path}.mT")
    schedule = block.get("eps_schedule")
    if schedule is not None:
        if not isinstance(schedule, list) or not schedule:
            raise ConfigError(f"schema violation at {path}.eps_schedule: expected a list")
        schedule = tuple(
            _number(v, f"{path}.eps_schedule[{i}]", lo=0.0, lo_open=True)
            for i, v in enumerate(schedule)
        )
    try:
        return CongestionSpec(
            grid=grid,
            alpha=alpha,
            mu=mu,
            m0=m0,
            mT=mT,
            eps_schedule=schedule,
            tol_fp=_number(block.get("tol_fp", 1e-6), f"{path}.tol_fp", lo=0.0, lo_open=True),
        )
    except ValueError as exc:
        raise ConfigError(f"range violation in {path}: {exc}") from exc


_HUGHES_KEYS = {"x_min", "x_max", "nx", "times", "branch", "speed", "rho0"}


def _hughes_density_from(entry, xs: np.ndarray, path: str) -> np.ndarray:
    block = _as_block(entry, path)
    kind = _require(block, "type", path)
    if kind == "constant":
        _reject_unknown(block, {"type", "value"}, path)
        value = _number(_require(block, "value", path), f"{path}.value", lo=0.0)
        return np.full(xs.size, value)
    if kind == "ramp":
        _reject_unknown(block, {"type", "lo", "hi", "steepness"}, path)
        lo = _number(_require(block, "lo", path), f"{path}.lo", lo=0.0)
        hi = _number(_require(block, "hi", path), f"{path}.hi", lo=0.0)
        steep = _number(block.get("steepness", 1.0), f"{path}.steepness", lo=0.0, lo_open=True)
        return lo + (hi - lo) * (1.0 + np.tanh(steep * xs)) / 2.0
    if kind == "samples":
        _reject_unknown(block, {"type", "values"}, path)
        arr = np.asarray(_require(block, "values", path), dtype=float)
        if arr.shape != (xs.size,):
            raise ConfigError(
                f"schema violation at {path}.values: expected {xs.size} samples, got {arr.shape}"
            )
        return arr
    raise ConfigError(f"schema violation at {path}.type: unknown density type {kind!r}")


def _hughes_from(block: dict, path: str) -> HughesSpec:
    block = _as_block(block, path)
    _reject_unknown(block, _HUGHES_KEYS, path)
    x_min = _number(_require(block, "x_min", path), f"{path}.x_min")
    x_max = _number(_require(block, "x_max", path), f"{path}.x_max")
    if not x_max > x_min:
        raise ConfigError(f"range violation at {path}.x_max: window must have positive width")
    nx = _integer(block.get("nx", 81), f"{path}.nx", lo=3)
    times = block.get("times", [0.0, 0.5, 1.0])
    if not isinstance(times, list) or not times:
        raise ConfigError(f"schema violation at {path}.times: expected a nonempty list")
    times = tuple(_number(t, f"{path}.times[{i}]", lo=0.0) for i, t in enumerate(times))

    speed_entry = block.get("speed", "linear")
    if speed_entry == "linear":
        speed = LinearSpeed()
    else:
        sb = _as_block(speed_entry, f"{path}.speed")
        _reject_unknown(sb, {"type", "k1", "k2", "beta"}, f"{path}.speed")
        if _require(sb, "type", f"{path}.speed") != "congestion":
            raise ConfigError(
                f"schema violation at {path}.speed.type: expected linear or congestion"
            )
        try:
            speed = CongestionSpeed(
                k1=_number(sb.get("k1", 1.0), f"{path}.speed.k1", lo=0.0, lo_open=True),
                k2=_number(sb.get("k2", 1.0), f"{path}.speed.k2", lo=0.0, lo_open=True),
                beta=_number(sb.get("beta", 0.25), f"{path}.speed.beta",
                             lo=0.0, hi=0.5, lo_open=True, hi_open=True),
            )
        except ValueError as exc:
            raise ConfigError(f"range violation in {path}.speed: {exc}") from exc

    xs = np.linspace(x_min, x_max, nx)
    rho0 = _hughes_density_from(_require(block, "rho0", path), xs, f"{path}.rho0")
    branch = block.get("branch", "increasing")
    try:
        return HughesSpec(x_min=x_min, x_max=x_max, rho0=rho0, times=times,
                          branch=branch, speed=speed)
    except ValueError as exc:
        raise ConfigError(f"range violation in {path}: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Load, schema-check, and range-check one YAML run description."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}"
            ) from exc
        raise ConfigError(f"parse error: {exc}") from exc

    doc = _as_block(doc, "document")
    _reject_unknown(doc, {"schema_version", "mode", "seed", "output_dir", "grid", *MODES},
                    "document")
    version = _integer(_require(doc, "schema_version", "document"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema violation at schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    mode = _require(doc, "mode", "document")
    if mode not in MODES:
        raise ConfigError(f"schema violation at mode: expected one of {MODES}, got {mode!r}")
    present = [name for name in MODES if name in doc]
    if present != [mode]:
        raise ConfigError(
            f"schema violation: exactly one mode block named {mode!r} must be present, "
            f"found {present or 'none'}"
        )
    seed = _integer(doc.get("seed", 0), "seed", lo=0)
    output_dir = Path(doc.get("output_dir", "runs/latest"))

    block = doc[mode]
    if mode == "hughes":
        spec = _hughes_from(block, "hughes")
    else:
        grid = _grid_from(doc.get("grid", {}), "grid")
        if mode == "planning":
            spec = _planning_from(block, grid, "planning")
        elif mode == "congestion":
            spec = _congestion_from(block, grid, "congestion")
        else:
            spec = _target_from(block, grid, "validate")
    return RunConfig(schema_version=version, mode=mode, seed=seed,
                     output_dir=output_dir, spec=spec, raw=doc)


# ---------------------------------------------------------------------------
# CSV writers/readers (17 significant digits; byte-reproducible)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_field_csv(path, ts, xs, field) -> None:
    field = np.asarray(field, dtype=float)
    line = ",".join(["%.17g"] * (field.shape[1] + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(_fmt(x) for x in xs) + "\n")
        for t, row in zip(ts, field):
            fh.write(line % (t, *row))


def write_series_csv(path, ts, series) -> None:
    with open(path, "w") as fh:
        fh.write("t,q\n")
        for t, v in zip(ts, series):
            fh.write(_fmt(t) + "," + _fmt(v) + "\n")


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        xs = np.array([float(v) for v in header[1:]])
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ts = np.array([float(r[0]) for r in rows])
    field = np.array([[float(v) for v in r[1:]] for r in rows])
    return ts, xs, field


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        fh.readline()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ts = np.array([float(r[0]) for r in rows])
    series = np.array([float(r[1]) for r in rows])
    return ts, series


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_diagnostics(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# assumption validation


def run_validation(config: RunConfig, quiet: bool = False) -> int:
    """Report :func:`model.check_assumptions` on the config; 0 all pass, 2 any failure."""
    spec = config.spec
    if isinstance(spec, HughesSpec):
        raise ConfigError(
            "assumption validation needs a planning, validate, or congestion block"
        )
    model = None if isinstance(spec, CongestionSpec) else spec.model
    checks = check_assumptions(model, spec.m0, spec.mT, spec.grid.x,
                               np.random.default_rng(config.seed))
    if not quiet:
        for name, (status, detail) in checks.items():
            print(f"{status.upper():4s} {name}: {detail}")

    config.output_dir.mkdir(parents=True, exist_ok=True)
    with open(config.output_dir / "report.json", "w") as fh:
        json.dump(_jsonable({
            "mode": "validate",
            "seed": config.seed,
            "assumptions": [
                {"name": n, "status": s, "detail": d} for n, (s, d) in checks.items()
            ],
        }), fh, indent=2)
        fh.write("\n")
    return 0 if all(s != "fail" for s, _ in checks.values()) else 2


# ---------------------------------------------------------------------------
# solve dispatch


def _run_planning(config: RunConfig, out: Path, quiet: bool) -> int:
    spec = config.spec
    started = time.perf_counter()
    report = minimize(spec)
    sol = recover(spec, report.pair)
    wall = time.perf_counter() - started
    g = spec.grid

    write_field_csv(out / "solution_phi.csv", g.t, g.x, report.pair.phi)
    write_series_csv(out / "solution_q.csv", g.t, report.pair.q)
    write_field_csv(out / "solution_u.csv", g.t, g.x, sol.u)
    write_field_csv(out / "solution_m.csv", g.t, g.x, sol.m)
    _write_diagnostics(out / "diagnostics.csv", "iteration,objective",
                       list(enumerate(report.objective_trace)))
    checks = validate_solution(sol, spec)
    summary = {
        "mode": "planning",
        "seed": config.seed,
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "objective": float(report.objective_trace[-1]),
        "grad_norm": float(report.grad_norm),
        "wall_time": wall,
        "residuals": checks,
        "objective_trace": report.objective_trace,
        "diagnostics": report.diagnostics,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2)
        fh.write("\n")
    if not quiet:
        state = "converged" if report.converged else "NOT converged"
        print(f"planning: {state} in {report.iterations} iterations, "
              f"objective {summary['objective']:.12g}, grad norm {report.grad_norm:.3e}")
    return 0 if report.converged else 2


def _run_congestion(config: RunConfig, out: Path, quiet: bool) -> int:
    spec = config.spec
    started = time.perf_counter()
    report = solve_congestion(spec)
    wall = time.perf_counter() - started
    g = spec.grid
    sol = report.solution

    write_field_csv(out / "solution_phi.csv", g.t, g.x, report.pair.phi)
    write_series_csv(out / "solution_q.csv", g.t, report.pair.q)
    write_field_csv(out / "solution_u.csv", g.t, g.x, sol.u)
    write_field_csv(out / "solution_m.csv", g.t, g.x, sol.m)
    _write_diagnostics(out / "diagnostics.csv", "iteration,fp_residual",
                       list(enumerate(report.objective_trace)))
    summary = {
        "mode": "congestion",
        "seed": config.seed,
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "fp_residual_sup": float(report.grad_norm),
        "wall_time": wall,
        "diagnostics": report.diagnostics,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2)
        fh.write("\n")
    if not quiet:
        state = "converged" if report.converged else "NOT converged"
        print(f"congestion: {state} after {report.iterations} sweeps, "
              f"fixed-point residual {report.grad_norm:.3e}")
    return 0 if report.converged else 2


def _run_hughes(config: RunConfig, out: Path, quiet: bool) -> int:
    spec = config.spec
    started = time.perf_counter()
    sol = solve_hughes(spec)
    wall = time.perf_counter() - started

    ts = np.asarray(sol.times)
    write_field_csv(out / "solution_phi.csv", ts, sol.xs, sol.phi)
    write_field_csv(out / "solution_m.csv", ts, sol.xs, sol.rho)
    write_field_csv(out / "solution_ystar.csv", ts, sol.xs, sol.ystar)
    per_time = np.max(np.abs(sol.eikonal_residual), axis=1)
    _write_diagnostics(out / "diagnostics.csv", "time,eikonal_sup",
                       list(zip(ts, per_time)))
    summary = {
        "mode": "hughes",
        "seed": config.seed,
        "converged": True,
        "times": list(ts),
        "eikonal_sup": float(np.max(per_time)) if per_time.size else 0.0,
        "density_range": [float(np.min(sol.rho)), float(np.max(sol.rho))],
        "wall_time": wall,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2)
        fh.write("\n")
    if not quiet:
        print(f"hughes: evaluated {len(sol.times)} time slices, "
              f"eikonal sup {summary['eikonal_sup']:.3e}")
    return 0


def run(config: RunConfig, quiet: bool = False) -> int:
    """Dispatch one parsed config; returns the process exit status."""
    if config.mode == "validate":
        return run_validation(config, quiet=quiet)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    if config.mode == "planning":
        return _run_planning(config, out, quiet)
    if config.mode == "congestion":
        return _run_congestion(config, out, quiet)
    return _run_hughes(config, out, quiet)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgplan",
        description="Config-driven front end for the planning, congestion, "
                    "and pedestrian-flow solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the solver selected by the config's mode"),
        ("validate", "sample the structural assumptions behind a config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML run description")
        p.add_argument("--out", help="override the config's output directory")
        p.add_argument("--seed", type=int, help="override the config's seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.out is not None:
            config.output_dir = Path(args.out)
        if args.seed is not None:
            config.seed = args.seed
        if args.command == "validate":
            return run_validation(config, quiet=args.quiet)
        return run(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
