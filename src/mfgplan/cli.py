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
        (hughes runs have no value function or gauge: they write phi, the
        density, and solution_ystar.csv, the envelope optimizer),
    report.json
        structured summary: convergence flags, traces, residual norms,
        timings,
    diagnostics.csv
        per-iteration trace.

Everything numeric is written at 17 significant digits so that re-running
an identical config byte-reproduces the CSV files; timings live only in
report.json.  Each CSV cell is exactly ``format(v, ".17g")``, computed for
whole arrays by ``_format_rows`` with ``format`` itself as the exact fallback.
Exit codes: 0 converged/passed, 2 flagged non-convergence or failed
assumptions, 1 hard error.
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
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser when built in


class ConfigError(Exception):
    """Any config problem: parse, schema, or range."""


@dataclass
class RunConfig:
    """Validated run description; ``spec`` is the ready-to-solve object."""

    mode: str
    seed: int
    output_dir: Path
    spec: object


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


def _number(value, path: str, lo=None, hi=None, lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"schema violation at {path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the double range reads as infinite
        v = np.inf if value > 0 else -np.inf
    if not np.isfinite(v):
        raise ConfigError(f"range violation at {path}: {v:g} is not a finite number")
    if lo is not None and (v <= lo if lo_open else v < lo):
        bracket = "(" if lo_open else "["
        raise ConfigError(f"range violation at {path}: {v:g} outside {bracket}{lo:g}, ...")
    if hi is not None and v >= hi:
        raise ConfigError(f"range violation at {path}: {v:g} outside ..., {hi:g})")
    return v


def _integer(value, path: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"schema violation at {path}: expected an integer, got {value!r}")
    _number(value, path)  # an integer beyond the double range is a range violation
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
                      lo=-1.0, hi=1.0, lo_open=True)
        mode = _integer(block.get("mode", 1), f"{path}.mode", lo=1)
        wave = np.sin if kind == "sine" else np.cos
        return 1.0 + amp * wave(2.0 * np.pi * mode * x)
    if kind == "touching":
        # pinned to zero at x = 0; unit mass is exact on the periodic lattice
        _reject_unknown(block, {"type"}, path)
        return 1.0 - np.cos(2.0 * np.pi * x)
    if kind == "samples":
        return _samples_from(block, grid.nx, path)
    raise ConfigError(f"schema violation at {path}.type: unknown density type {kind!r}")


def _samples_from(block: dict, n: int, path: str) -> np.ndarray:
    """The ``values`` of a ``type: samples`` density: exactly ``n`` finite numbers."""
    _reject_unknown(block, {"type", "values"}, path)
    values = _require(block, "values", path)
    if not isinstance(values, list) or len(values) != n:
        got = f"{len(values)} values" if isinstance(values, list) else repr(values)
        raise ConfigError(f"schema violation at {path}.values: expected {n} samples, got {got}")
    try:
        samples = np.array([v if type(v) in (int, float) else np.nan for v in values], dtype=float)
    except OverflowError:  # an integer beyond the double range: always raises, at the first bad value
        for i, v in enumerate(values):
            _number(v, f"{path}.values[{i}]")
    for i in np.flatnonzero(~np.isfinite(samples))[:1]:  # a non-number reads NaN; _number raises
        _number(values[i], f"{path}.values[{i}]")
    return samples


@dataclass
class ValidationTarget:
    """The model and endpoint densities of a planning or validate block."""

    model: MFGModel
    grid: Grid
    m0: np.ndarray
    mT: np.ndarray


_MODEL_KEYS = {"hamiltonian", "coupling", "potential", "m0", "mT"}
_PLANNING_KEYS = _MODEL_KEYS | {"order", "tol", "floor", "max_iters"}


def _typed_entry(entry, path: str, kind: str, keys: set[str], expected: str) -> dict:
    """The mapping form of a model or speed entry: ``type: kind`` and optional ``keys``."""
    block = _as_block(entry, path)
    _reject_unknown(block, {"type", *keys}, path)
    if _require(block, "type", path) != kind:
        raise ConfigError(f"schema violation at {path}.type: expected {expected}")
    return block


def _target_from(block: dict, grid: Grid, path: str, keys=_MODEL_KEYS) -> ValidationTarget:
    """Parse the keys planning and validate blocks share; reject any not in ``keys``."""
    block = _as_block(block, path)
    _reject_unknown(block, keys, path)

    ham_entry = block.get("hamiltonian", "quadratic")
    if ham_entry == "quadratic":
        ham = quadratic_hamiltonian()
    else:
        hb = _typed_entry(ham_entry, f"{path}.hamiltonian", "power", {"alpha"},
                          "quadratic or power")
        alpha = _number(hb.get("alpha", 2.0), f"{path}.hamiltonian.alpha", lo=1.0, lo_open=True)
        ham = power_hamiltonian(alpha)

    coup_entry = block.get("coupling", "quadratic")
    if coup_entry == "quadratic":
        coup = quadratic_coupling()
    elif coup_entry == "linear":
        # fails the strict-convexity assumption: the solvers accept it, and only
        # ``mfgplan validate`` flags it
        coup = Coupling(
            G=lambda z: np.asarray(z, dtype=float).copy(),
            g=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        )
    else:
        cb = _typed_entry(coup_entry, f"{path}.coupling", "power", {"gamma"},
                          "quadratic, linear, or power")
        gamma = _number(cb.get("gamma", 2.0), f"{path}.coupling.gamma", lo=1.0, lo_open=True)
        coup = power_coupling(gamma)

    pot_entry = block.get("potential", "zero")
    if pot_entry == "zero":
        pot = zero_potential()
    else:
        pb = _typed_entry(pot_entry, f"{path}.potential", "cosine", {"amplitude", "frequency"},
                          "zero or cosine")
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
    target = _target_from(block, grid, path, _PLANNING_KEYS)
    order = _integer(block.get("order", 0), f"{path}.order")
    if order not in (0, 1):
        raise ConfigError(f"range violation at {path}.order: must be 0 or 1, got {order}")
    return PlanningSpec(
        grid=grid,
        model=target.model,
        m0=target.m0,
        mT=target.mT,
        order=order,
        max_iters=_integer(block.get("max_iters", 20000), f"{path}.max_iters", lo=1),
        tol=_number(block.get("tol", 1e-8), f"{path}.tol", lo=0.0, lo_open=True),
        floor=_number(block.get("floor", 1e-8), f"{path}.floor", lo=0.0),
    )


_CONGESTION_KEYS = {"alpha", "mu", "m0", "mT", "tol_fp"}


def _congestion_from(block: dict, grid: Grid, path: str) -> CongestionSpec:
    block = _as_block(block, path)
    _reject_unknown(block, _CONGESTION_KEYS, path)
    alpha = _number(block.get("alpha", 0.5), f"{path}.alpha", lo=0.0, hi=2.0, lo_open=True)
    mu = _number(block.get("mu", 1.0), f"{path}.mu", lo=0.0, lo_open=True)
    m0 = _density_from(_require(block, "m0", path), grid, f"{path}.m0")
    mT = _density_from(_require(block, "mT", path), grid, f"{path}.mT")
    return CongestionSpec(
        grid=grid,
        alpha=alpha,
        mu=mu,
        m0=m0,
        mT=mT,
        tol_fp=_number(block.get("tol_fp", 1e-6), f"{path}.tol_fp", lo=0.0, lo_open=True),
    )


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
        return _samples_from(block, xs.size, path)
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
        sb = _typed_entry(speed_entry, f"{path}.speed", "congestion", {"k1", "k2", "beta"},
                          "linear or congestion")
        speed = CongestionSpeed(
            k1=_number(sb.get("k1", 1.0), f"{path}.speed.k1", lo=0.0, lo_open=True),
            k2=_number(sb.get("k2", 1.0), f"{path}.speed.k2", lo=0.0, lo_open=True),
            beta=_number(sb.get("beta", 0.25), f"{path}.speed.beta", lo=0.0, hi=0.5, lo_open=True),
        )

    xs = np.linspace(x_min, x_max, nx)
    rho0 = _hughes_density_from(_require(block, "rho0", path), xs, f"{path}.rho0")
    branch = block.get("branch", "increasing")
    return HughesSpec(x_min=x_min, x_max=x_max, rho0=rho0, times=times, branch=branch, speed=speed)


def parse_config(path) -> RunConfig:
    """Load, schema-check, and range-check one YAML run description.

    PyYAML decodes the bytes (an invalid one is a parse error) and parses them with
    ``_YAML_LOADER``, libyaml's ``CSafeLoader`` if built in, else ``SafeLoader``: both
    build the document with the same safe constructor and resolver, so the values agree."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
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
    output_dir = doc.get("output_dir", "runs/latest")
    if not isinstance(output_dir, str):
        raise ConfigError(f"schema violation at output_dir: expected a path, got {output_dir!r}")

    block = doc[mode]
    if mode == "hughes" and "grid" in doc:
        raise ConfigError("schema violation at grid: hughes runs take their window "
                          "from the hughes block (x_min, x_max, nx, times)")
    grid = None if mode == "hughes" else _grid_from(doc.get("grid", {}), "grid")
    try:  # what the spec constructors reject is a range violation in the mode block
        if mode == "hughes":
            spec = _hughes_from(block, mode)
        elif mode == "planning":
            spec = _planning_from(block, grid, mode)
        elif mode == "congestion":
            spec = _congestion_from(block, grid, mode)
        else:
            spec = _target_from(block, grid, mode)
    except ValueError as exc:
        raise ConfigError(f"range violation in {mode}: {exc}") from exc
    return RunConfig(mode=mode, seed=seed, output_dir=Path(output_dir), spec=spec)


# ---------------------------------------------------------------------------
# CSV writers/readers (17 significant digits; byte-reproducible)


_BLOCK = 4096  # values per formatter block: its scratch arrays stay in cache, about 2 MB
_FAST = (1e-280, 1e280)  # magnitudes the fast path takes: no split overflows or underflows
_K_MIN, _K_MAX = -283, 283  # decimal exponents the fast path reaches, retries included
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _pow10(s: int) -> tuple[float, float]:
    """``10^s = hi + lo``, both correctly rounded from exact integers."""
    num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
    n, d = (num / den).as_integer_ratio()  # int / int rounds correctly
    return n / d, (num * d - n * den) / (den * d)


def _keep_table() -> np.ndarray:
    """Row ``18 (k + 100) + nd``: the bytes ``format(v, ".17g")`` shows, less the sign, of a
    48-byte cell (six words: ``-0.000``, 17 digits each followed by a ``.`` slot, ``e±XXX``,
    the separator, two unused bytes) at exponent ``k`` (as for +-100 beyond it), ``nd`` digits."""
    k, nd, pos = (v.astype(np.int16) for v in np.ogrid[-100:101, :18, :48])
    fixed, small = (k >= -4) & (k < 17), (k >= -4) & (k < 0)
    dot = np.where(fixed, np.where(small, 18, k + 1), 1)  # digits before the dot
    shown = np.maximum(nd, np.where(fixed & ~small, k + 1, 0))  # "100", not "1"
    digit, body = (pos - 6) // 2, (pos >= 6) & (pos < 40)
    return ((pos >= 1) & (pos < 6) & small & (pos - 3 < -k - 1)  # "0." and up to three zeros
            | body & (pos % 2 == 0) & (digit < shown)
            | body & (pos % 2 == 1) & (digit + 1 == dot) & (shown > dot)
            | (pos >= 40) & (pos < 45) & ~fixed & ((pos != 42) | (np.abs(k) >= 100))
            | (pos == 45)).reshape(-1, 48)


_HI, _LO = np.array([_pow10(16 - k) for k in range(_K_MIN, _K_MAX + 1)]).T
_HH = _SPLIT * _HI - (_SPLIT * _HI - _HI)  # Veltkamp's split: _HI = _HH + (_HI - _HH)
_POW10, _KEEP = np.column_stack([_HI, _HH, _HI - _HH, _LO]), _keep_table()
_LEAD = np.frombuffer("".join(f"-0.000{i}." for i in range(10)).encode(), "<u8")
_EXP = np.frombuffer("".join(f"e{k:+04d}\0\0\0" for k in range(_K_MIN, _K_MAX + 1)).encode(), "<u8")
_QUAD_DIGITS = np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
_QUADS = np.insert(48 + _QUAD_DIGITS, range(1, 5), ord("."), axis=1).astype(np.uint8).view("<u8")
# trailing zero digits of each quad, 4 for 0
_ZEROS = np.cumprod(_QUAD_DIGITS[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)


def _format_block(x: np.ndarray, cols: int) -> bytes:
    fast = (np.abs(x) >= _FAST[0]) & (np.abs(x) <= _FAST[1])
    a = np.where(fast, np.abs(x), 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    ah = _SPLIT * a - (_SPLIT * a - a)
    al = a - ah
    for _ in range(2):  # once more where log10 missed the decade
        hi, hh, hl, lo = _POW10.take(k - _K_MIN, axis=0).T
        p = a * hi
        rest = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo  # Dekker
        frac = rest - np.floor(rest)
        d = p.astype(np.int64) + np.floor(rest).astype(np.int64) + (frac > 0.5)
        step = (d > 10**17).astype(np.intp) - (d < 10**16)
        if not step.any():
            break
        k += step
    fast &= (d > 10**16) & (d <= 10**17) & (np.abs(frac - 0.5) > 1e-6)
    k = np.where(fast, k + (d == 10**17), 0)  # D = 1e17 carries; 0 keeps the rest in the tables
    d = np.where(fast & (d < 10**17), d, 10**16)

    hi, lo = d // 10**8 % 10**8, d % 10**8
    quads = hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4
    sep = np.where(np.arange(x.size) % cols < cols - 1, np.uint64(44 << 40), np.uint64(10 << 40))
    cells = np.column_stack([_LEAD.take(d // 10**16), *(_QUADS.take(q) for q in quads),
                             _EXP.take(k - _K_MIN) | sep]).view(np.uint8)  # "," or "\n" last
    zeros = np.where(lo, np.where(quads[3], _ZEROS.take(quads[3]), 4 + _ZEROS.take(quads[2])),
                     8 + np.where(quads[1], _ZEROS.take(quads[1]), 4 + _ZEROS.take(quads[0])))
    keep = _KEEP.take(18 * (np.clip(k, -100, 100) + 100) + 17 - zeros, axis=0)
    keep[:, 0] = x < 0
    text = np.array([format(v, ".17g").encode() for v in x[~fast].tolist()], "S45")
    cells[~fast, :45] = text = text.view(np.uint8).reshape(-1, 45)
    keep[~fast, :45] = text != 0
    return np.compress(keep.ravel(), cells.ravel()).tobytes()


def _format_rows(values: np.ndarray) -> bytes:
    """The bytes ``format(v, ".17g")`` gives per value, ``,`` between and ``\\n`` after rows.

    A fast path that certifies itself (Loitsch 2010): for ``a = |x|`` in ``_FAST`` with
    exponent ``k``, ``r = a 10^(16 - k) = p + e + a lo + a t``, where ``10^(16 - k) = hi + lo
    + t``, ``|t| <= 2^-106 10^(16 - k)``, and ``a hi = p + e`` exactly (Dekker).  ``rest =
    fl(e + fl(a lo))`` errs by ``2^-53 |a lo| + 2^-49 + a |t| < 5e-15`` (``|e| <= 8``, ``|a
    lo| < 12`` for ``r < 1e17 + 1``) and ``p >= 2^53`` is an integer, so ``D = p + floor(rest)
    + (frac > 1/2)`` is ``round(r)`` if ``|frac - 1/2| > 1e-6``.  ``D`` is kept if also ``1e16
    < D <= 1e17`` (``1e16`` may hide ``r < 1e16``; ``1e17`` is ``1e16`` at ``k + 1`` either
    way).  Every other value (zeros, non-finite, out of range, near or exact ties) goes to
    ``format``.
    """
    if values.size < 180:  # below this, formatting value by value beats a block's fixed cost
        return "".join(",".join(map("{:.17g}".format, r)) + "\n" for r in values.tolist()).encode()
    rows, cols = values.shape
    per = max(1, _BLOCK // cols)
    return b"".join(_format_block(values[i : i + per].ravel(), cols) for i in range(0, rows, per))


def write_field_csv(path, ts, xs, field) -> None:
    ts, xs, field = (np.asarray(v, dtype=float) for v in (ts, xs, field))
    if field.ndim != 2 or ts.shape != field.shape[:1] or xs.shape != field.shape[1:]:
        raise ValueError(f"field of shape {field.shape} needs ts of shape (rows,) and xs of "
                         f"shape (columns,), got ts {ts.shape} and xs {xs.shape}")
    table = np.empty((ts.size + 1, xs.size + 1))
    table[0, 0], table[0, 1:], table[1:, 0], table[1:, 1:] = 0.0, xs, ts, field  # "0" becomes "t"
    Path(path).write_bytes(b"t" + _format_rows(table)[1:])


def write_series_csv(path, ts, series) -> None:
    _write_diagnostics(path, "t,q", ts, series)


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.loadtxt(path, delimiter=",", max_rows=1, dtype=str)[1:].astype(float)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], xs, table[:, 1:]


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True))


def _write_report(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=lambda a: a.tolist())  # numpy arrays and scalars
        fh.write("\n")


def _write_diagnostics(path, header: str, *columns) -> None:
    Path(path).write_bytes(header.encode() + b"\n" + _format_rows(np.column_stack(columns)))


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
    _write_report(config.output_dir / "report.json", {
        "mode": "validate",
        "seed": config.seed,
        "assumptions": [{"name": n, "status": s, "detail": d} for n, (s, d) in checks.items()],
    })
    return 0 if all(s != "fail" for s, _ in checks.values()) else 2


# ---------------------------------------------------------------------------
# solve dispatch


def _write_solution(out: Path, g: Grid, report, sol, trace_header: str) -> None:
    """The four solution CSVs of a planning or congestion run, and its trace."""
    write_field_csv(out / "solution_phi.csv", g.t, g.x, report.pair.phi)
    write_series_csv(out / "solution_q.csv", g.t, report.pair.q)
    write_field_csv(out / "solution_u.csv", g.t, g.x, sol.u)
    write_field_csv(out / "solution_m.csv", g.t, g.x, sol.m)
    trace = report.objective_trace
    _write_diagnostics(out / "diagnostics.csv", trace_header, np.arange(len(trace)), trace)


def _run_planning(spec: PlanningSpec, out: Path) -> tuple[dict, bool, str]:
    report = minimize(spec)
    sol = recover(spec, report.pair, report.slopes)
    _write_solution(out, spec.grid, report, sol, "iteration,objective")
    summary = {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "objective": float(report.objective_trace[-1]),
        "grad_norm": float(report.grad_norm),
        "residuals": validate_solution(sol, spec),
        "objective_trace": report.objective_trace,
        "diagnostics": report.diagnostics,
    }
    state = "converged" if report.converged else "NOT converged"
    return summary, report.converged, (
        f"{state} in {report.iterations} iterations, "
        f"objective {summary['objective']:.12g}, grad norm {report.grad_norm:.3e}")


def _run_congestion(spec: CongestionSpec, out: Path) -> tuple[dict, bool, str]:
    report = solve_congestion(spec)
    _write_solution(out, spec.grid, report, report.solution, "iteration,fp_residual")
    summary = {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "fp_residual_sup": float(report.grad_norm),
        "diagnostics": report.diagnostics,
    }
    state = "converged" if report.converged else "NOT converged"
    return summary, report.converged, (
        f"{state} after {report.iterations} sweeps, fixed-point residual {report.grad_norm:.3e}")


def _run_hughes(spec: HughesSpec, out: Path) -> tuple[dict, bool, str]:
    sol = solve_hughes(spec)
    ts = np.asarray(sol.times)
    for name, field in (("phi", sol.phi), ("m", sol.rho), ("ystar", sol.ystar)):
        write_field_csv(out / f"solution_{name}.csv", ts, sol.xs, field)
    per_time = np.max(np.abs(sol.eikonal_residual), axis=1)
    _write_diagnostics(out / "diagnostics.csv", "time,eikonal_sup", ts, per_time)
    summary = {
        "converged": True,
        "times": list(ts),
        "eikonal_sup": float(np.max(per_time)) if per_time.size else 0.0,
        "density_range": [float(np.min(sol.rho)), float(np.max(sol.rho))],
    }
    return summary, True, (
        f"evaluated {len(sol.times)} time slices, eikonal sup {summary['eikonal_sup']:.3e}")


_RUNNERS = {"planning": _run_planning, "congestion": _run_congestion, "hughes": _run_hughes}


def run(config: RunConfig, quiet: bool = False) -> int:
    """Dispatch one parsed config; returns the process exit status.

    A solver run writes its outputs and ``report.json``, the runner's summary after the
    mode and seed, then ``wall_time``, the seconds the runner took (solve and writes), and
    prints the runner's one-line message after the mode."""
    if config.mode == "validate":
        return run_validation(config, quiet=quiet)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    summary, converged, message = _RUNNERS[config.mode](config.spec, out)
    summary["wall_time"] = time.perf_counter() - started
    _write_report(out / "report.json", {"mode": config.mode, "seed": config.seed, **summary})
    if not quiet:
        print(f"{config.mode}: {message}")
    return 0 if converged else 2


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
            config.seed = _integer(args.seed, "--seed", lo=0)
        if args.command == "validate":
            return run_validation(config, quiet=args.quiet)
        return run(config, quiet=args.quiet)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
