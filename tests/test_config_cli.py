"""Config parsing, CSV round-trips, run dispatch, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfgplan import cli
from mfgplan.cli import (
    ConfigError,
    main,
    parse_config,
    read_field_csv,
    read_series_csv,
    run,
    run_validation,
    write_field_csv,
    write_series_csv,
)
from mfgplan.congestion import CongestionSpec
from mfgplan.hughes import HughesSpec
from mfgplan.planning import PlanningSpec


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def planning_doc(**overrides):
    doc = {
        "schema_version": 1,
        "mode": "planning",
        "grid": {"nt": 9, "nx": 16, "horizon": 1.0},
        "planning": {"m0": "uniform", "mT": "uniform"},
    }
    doc.update(overrides)
    return doc


def hughes_doc(**block_overrides):
    block = {"x_min": -4.0, "x_max": 4.0, "nx": 41, "times": [0.0, 0.5],
             "rho0": {"type": "constant", "value": 0.3}}
    block.update(block_overrides)
    return {"schema_version": 1, "mode": "hughes", "hughes": block}


# ---------------------------------------------------------------------------
# parsing and schema


def test_minimal_planning_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, planning_doc()))
    assert cfg.mode == "planning"
    assert cfg.seed == 0
    spec = cfg.spec
    assert isinstance(spec, PlanningSpec)
    assert spec.order == 0
    assert spec.model.hamiltonian.name == "quadratic"
    z = np.array([-1.5, 0.0, 2.0])
    assert np.array_equal(spec.model.coupling.G(z), 0.5 * z * z)
    assert np.array_equal(spec.m0, np.ones(16))


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.yaml")


LOADERS = (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def test_parse_error_reports_location(tmp_path, monkeypatch):
    path = tmp_path / "broken.yaml"
    path.write_text("schema_version: 1\nmode: planning\n  bad: {\n")
    for loader in LOADERS:
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        with pytest.raises(ConfigError, match=r"line 3, column"):
            parse_config(path)


def test_undecodable_byte_is_a_parse_error(tmp_path, monkeypatch):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"# caf\xe9\n" + yaml.safe_dump(planning_doc()).encode())
    for loader in LOADERS:
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        with pytest.raises(ConfigError, match="parse error"):
            parse_config(path)


def _state(value):
    """What a parsed spec holds, comparable with ``==``: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {f.name: _state(getattr(value, f.name))
                                      for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_state(v) for v in value]
    return value.__qualname__ if callable(value) else value


def _samples_doc_path(tmp_path):
    """A planning document as the benchmark writes it: 256 sample floats per density."""
    rng = np.random.default_rng(7)
    x = np.arange(256) / 256
    m0, mT = (1.0 + a * np.sin(2.0 * np.pi * x + th) for a, th in rng.uniform(0.1, 0.6, (2, 2)))
    doc = planning_doc(grid={"nt": 32, "nx": 256, "horizon": 1.0},
                       planning={"m0": {"type": "samples", "values": m0.tolist()},
                                 "mT": {"type": "samples", "values": mT.tolist()},
                                 "order": 1, "tol": 1.0e-8})
    path = tmp_path / "samples.yaml"
    path.write_text(yaml.safe_dump(doc, default_flow_style=None, sort_keys=False))
    return path


def test_both_yaml_loaders_parse_the_same_configs(tmp_path, monkeypatch):
    paths = sorted(Path("configs").glob("*.yaml")) + [_samples_doc_path(tmp_path)]
    assert len(paths) > 1
    for path in paths:
        parsed = []
        for loader in LOADERS:
            monkeypatch.setattr(cli, "_YAML_LOADER", loader)
            cfg = parse_config(path)
            parsed.append((cfg.mode, cfg.seed, cfg.output_dir, _state(cfg.spec)))
        assert parsed[0] == parsed[1], path


def test_missing_density_is_schema_error(tmp_path):
    doc = planning_doc()
    del doc["planning"]["m0"]
    with pytest.raises(ConfigError, match="schema violation at planning: missing required key 'm0'"):
        parse_config(write_config(tmp_path, doc))


def test_out_of_range_alpha_names_field(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"alpha": 2.5, "m0": "uniform", "mT": "uniform"},
    }
    with pytest.raises(ConfigError, match="congestion.alpha"):
        parse_config(write_config(tmp_path, doc))


def test_unknown_key_reports_path(tmp_path):
    doc = planning_doc()
    doc["planning"]["typo"] = 1
    with pytest.raises(ConfigError, match="planning.typo"):
        parse_config(write_config(tmp_path, doc))
    # the removed damped-iteration options are unknown keys now
    for key in ("max_outer", "damping"):
        doc = {
            "schema_version": 1,
            "mode": "congestion",
            "grid": {"nt": 13, "nx": 24},
            "congestion": {"m0": "uniform", "mT": "uniform", key: 1},
        }
        with pytest.raises(ConfigError, match=rf"congestion\.{key}: unknown key"):
            parse_config(write_config(tmp_path, doc))


def test_exactly_one_mode_block(tmp_path):
    doc = planning_doc()
    doc["congestion"] = {"m0": "uniform", "mT": "uniform"}
    with pytest.raises(ConfigError, match="exactly one mode block"):
        parse_config(write_config(tmp_path, doc))
    doc2 = planning_doc()
    del doc2["planning"]
    with pytest.raises(ConfigError, match="exactly one mode block"):
        parse_config(write_config(tmp_path, doc2))


def test_schema_version_checked(tmp_path):
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(write_config(tmp_path, planning_doc(schema_version=7)))


def test_unknown_mode(tmp_path):
    doc = planning_doc()
    doc["mode"] = "quantum"
    with pytest.raises(ConfigError, match="mode"):
        parse_config(write_config(tmp_path, doc))


def test_sample_density_length_checked(tmp_path):
    doc = planning_doc()
    doc["planning"]["m0"] = {"type": "samples", "values": [1.0, 1.0, 1.0]}
    with pytest.raises(ConfigError, match="expected 16 samples"):
        parse_config(write_config(tmp_path, doc))


def test_hughes_branch_mismatch_is_range_violation(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "hughes",
        "hughes": {
            "x_min": -1.0, "x_max": 1.0, "nx": 11, "times": [0.0, 0.5],
            "branch": "decreasing",
            "rho0": {"type": "ramp", "lo": 0.1, "hi": 0.6},
        },
    }
    with pytest.raises(ConfigError, match="range violation in hughes"):
        parse_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("mode, block, message", [
    ("planning", {"floor": 2.0}, "range violation in planning: floor must satisfy "
                                 "0 <= floor < min density 1.000e+00, got 2.0"),
    ("congestion", {"alpha": 1.5, "mu": 0.25},
     "range violation in congestion: need alpha < mu + 1, got 1.5 >= 1.25"),
])
def test_spec_range_violation_names_the_mode_block(tmp_path, mode, block, message):
    doc = {"schema_version": 1, "mode": mode, "grid": {"nt": 9, "nx": 16},
           mode: {"m0": "uniform", "mT": "uniform", **block}}
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, doc))
    assert str(exc.value) == message


def test_hughes_nan_density_sample_rejected(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "hughes",
        "output_dir": str(tmp_path / "out"),
        "hughes": {
            "x_min": -1.0, "x_max": 1.0, "nx": 5, "times": [0.0, 0.5],
            "rho0": {"type": "samples", "values": [0.2, 0.3, float("nan"), 0.5, 0.6]},
        },
    }
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"range violation at hughes\.rho0\.values\[2\]"):
        parse_config(path)
    assert main(["solve", str(path), "--quiet"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [True, "abc"])
def test_hughes_density_sample_must_be_a_number(tmp_path, value):
    doc = {
        "schema_version": 1,
        "mode": "hughes",
        "hughes": {
            "x_min": -1.0, "x_max": 1.0, "nx": 5, "times": [0.0, 0.5],
            "rho0": {"type": "samples", "values": [0.2, value, 0.4, 0.5, 0.6]},
        },
    }
    with pytest.raises(ConfigError, match=r"schema violation at hughes\.rho0\.values\[1\]: "
                                          r"expected a number"):
        parse_config(write_config(tmp_path, doc))


def test_hughes_rejects_a_grid_block(tmp_path):
    # the window and its nodes come from the hughes block; a grid block would be ignored
    doc = {
        "schema_version": 1,
        "mode": "hughes",
        "output_dir": str(tmp_path / "out"),
        "grid": {"nt": 1, "nx": "abc", "bogus": 3},
        "hughes": {
            "x_min": -1.0, "x_max": 1.0, "nx": 11, "times": [0.0, 0.5],
            "rho0": {"type": "constant", "value": 0.3},
        },
    }
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"^schema violation at grid: hughes runs take their "
                                          r"window from the hughes block"):
        parse_config(path)
    assert main(["solve", str(path), "--quiet"]) == 1
    assert not (tmp_path / "out").exists()


def test_planning_step0_is_unknown_key(tmp_path):
    doc = planning_doc()
    doc["planning"]["step0"] = 1.0
    with pytest.raises(ConfigError, match=r"schema violation at planning\.step0: unknown key"):
        parse_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("mode", ["planning", "validate"])
def test_nonfinite_density_sample_rejected(tmp_path, mode, value):
    values = [1.0] * 16
    values[2] = value
    block = {"m0": {"type": "samples", "values": values}, "mT": "uniform"}
    doc = planning_doc(planning=block) if mode == "planning" else validate_doc(block)
    doc["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError,
                       match=rf"range violation at {mode}\.m0\.values\[2\]: .* not a finite"):
        parse_config(path)
    assert main(["solve" if mode == "planning" else "validate", str(path), "--quiet"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, message", [
    (True, "schema violation at planning.m0.values[5]: expected a number, got True"),
    ("abc", "schema violation at planning.m0.values[5]: expected a number, got 'abc'"),
    (float("nan"), "range violation at planning.m0.values[5]: nan is not a finite number"),
    (float("inf"), "range violation at planning.m0.values[5]: inf is not a finite number"),
])
@pytest.mark.parametrize("later", ["later", float("nan"), float("-inf")])
def test_density_samples_name_their_first_bad_value(tmp_path, value, message, later):
    # the same message as checking each value through _number in order, also when
    # every value is a float and only the array check can tell the first from the later
    values = [1.0] * 16
    values[5], values[9] = value, later
    doc = planning_doc(planning={"m0": {"type": "samples", "values": values}, "mT": "uniform"})
    with pytest.raises(ConfigError) as info:
        parse_config(write_config(tmp_path, doc))
    assert str(info.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_number_is_range_violation(tmp_path, value):
    doc = planning_doc()
    doc["planning"]["tol"] = value
    with pytest.raises(ConfigError, match="range violation at planning.tol: .* not a finite"):
        parse_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_beyond_the_float_range_is_range_violation(tmp_path, capsys, sign):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"m0": "uniform", "mT": "uniform", "tol_fp": int(sign + "1" + "0" * 400)},
    }
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError,
                       match=rf"range violation at congestion\.tol_fp: {sign}inf is not a finite"):
        parse_config(path)
    assert main(["solve", str(path), "--quiet"]) == 1
    assert "error: range violation at congestion.tol_fp" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["planning", "validate"])
@pytest.mark.parametrize("field", ["m0.mode", "potential.frequency"])
def test_integer_count_beyond_the_float_range_is_range_violation(tmp_path, capsys, mode, field):
    huge = int("1" + "0" * 400)
    block = {"m0": {"type": "sine", "mode": 1}, "mT": "uniform",
             "potential": {"type": "cosine", "frequency": 1}}
    key, sub = field.split(".")
    block[key][sub] = huge
    doc = planning_doc(planning=block) if mode == "planning" else validate_doc(block)
    doc["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, doc)
    assert main(["solve" if mode == "planning" else "validate", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"error: range violation at {mode}.{field}: inf is not a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["planning", "validate"])
def test_density_sample_beyond_the_float_range_is_range_violation(tmp_path, capsys, mode):
    values = [1.0] * 16
    values[3], values[7] = -(10**400), "later"
    block = {"m0": {"type": "samples", "values": values}, "mT": "uniform"}
    doc = planning_doc(planning=block) if mode == "planning" else validate_doc(block)
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value) == f"range violation at {mode}.m0.values[3]: -inf is not a finite number"
    assert main(["solve" if mode == "planning" else "validate", str(path), "--quiet"]) == 1
    assert "error: range violation at" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize("value", [5, ["a", "b"]])
def test_output_dir_must_be_a_path(tmp_path, capsys, command, value):
    path = write_config(tmp_path, planning_doc(output_dir=value))
    with pytest.raises(ConfigError, match=r"schema violation at output_dir: expected a path"):
        parse_config(path)
    assert main([command, str(path), "--quiet"]) == 1
    assert "error: schema violation at output_dir" in capsys.readouterr().err


def test_congestion_eps_schedule_is_unknown_key(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"m0": "uniform", "mT": "uniform", "eps_schedule": 0.1},
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, doc))
    assert str(exc.value) == "schema violation at congestion.eps_schedule: unknown key"


@pytest.mark.parametrize("doc, message", [
    (planning_doc(planning={"m0": "uniform", "mT": "uniform", "order": 2}),
     "range violation at planning.order: must be 0 or 1, got 2"),
    (hughes_doc(x_max=-4.0), "range violation at hughes.x_max: window must have positive width"),
    (hughes_doc(times=[]), "schema violation at hughes.times: expected a nonempty list"),
    (hughes_doc(speed={"type": "congestion", "beta": 0.6}),
     "range violation at hughes.speed.beta: 0.6 outside ..., 0.5)"),
])
def test_config_error_messages(tmp_path, doc, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, doc))
    assert str(exc.value) == message


def test_typed_uniform_density_is_ones(tmp_path):
    doc = planning_doc(planning={"m0": {"type": "uniform"}, "mT": "uniform"})
    assert np.array_equal(parse_config(write_config(tmp_path, doc)).spec.m0, np.ones(16))


def test_repo_example_configs_parse():
    for name, expected in (
        ("planning_uniform.yaml", PlanningSpec),
        ("planning_sine.yaml", PlanningSpec),
        ("planning_power.yaml", PlanningSpec),
        ("congestion_sine.yaml", CongestionSpec),
        ("hughes_constant.yaml", HughesSpec),
    ):
        cfg = parse_config(f"configs/{name}")
        assert isinstance(cfg.spec, expected), name
    assert parse_config("configs/validate_quadratic.yaml").mode == "validate"


# ---------------------------------------------------------------------------
# CSV round-trips


def test_field_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1.0, 5)
    xs = rng.uniform(0.0, 1.0, 7)
    field = rng.standard_normal((5, 7)) * np.float64(10.0) ** rng.integers(-12, 12, (5, 7))
    path = tmp_path / "field.csv"
    write_field_csv(path, ts, xs, field)
    ts2, xs2, field2 = read_field_csv(path)
    assert np.array_equal(ts, ts2)
    assert np.array_equal(xs, xs2)
    assert np.array_equal(field, field2)


def test_field_csv_matches_per_value_format(tmp_path):
    # one format string per row writes what one format() call per value wrote
    specials = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1.0 / 3.0, 1e300]
    field = np.array([specials, specials[::-1]])
    ts, xs = np.array([0.0, 1.0 / 3.0]), np.linspace(0.0, 1.0, len(specials))
    path = tmp_path / "field.csv"
    write_field_csv(path, ts, xs, field)

    def line(values):
        return ",".join(format(float(v), ".17g") for v in values) + "\n"

    expected = "t," + line(xs) + "".join(line([t, *row]) for t, row in zip(ts, field))
    assert path.read_bytes() == expected.encode()


def test_series_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    ts = np.linspace(0.0, 1.0, 9)
    q = rng.standard_normal(9) * 1e-7
    path = tmp_path / "series.csv"
    write_series_csv(path, ts, q)
    ts2, q2 = read_series_csv(path)
    assert np.array_equal(ts, ts2)
    assert np.array_equal(q, q2)


# ---------------------------------------------------------------------------
# runs and exit codes


def test_trivial_planning_run(tmp_path):
    cfg = parse_config(write_config(tmp_path, planning_doc(output_dir=str(tmp_path / "out"))))
    assert run(cfg, quiet=True) == 0
    out = tmp_path / "out"
    for name in ("solution_phi.csv", "solution_q.csv", "solution_u.csv",
                 "solution_m.csv", "report.json", "diagnostics.csv"):
        assert (out / name).exists()
    _, _, m = read_field_csv(out / "solution_m.csv")
    assert np.max(np.abs(m - 1.0)) < 1e-12
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert abs(report["objective"] - 0.5) < 1e-10


def test_hughes_run_constant_density(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "hughes",
        "output_dir": str(tmp_path / "out"),
        "hughes": {
            "x_min": -4.0, "x_max": 4.0, "nx": 41, "times": [0.0, 0.5],
            "rho0": {"type": "constant", "value": 0.3},
        },
    }
    cfg = parse_config(write_config(tmp_path, doc))
    assert run(cfg, quiet=True) == 0
    _, _, rho = read_field_csv(tmp_path / "out" / "solution_m.csv")
    assert np.max(np.abs(rho - 0.3)) < 1e-8
    assert (tmp_path / "out" / "solution_ystar.csv").exists()
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        assert len(fh.readlines()) == 3  # header + one row per time


def test_hughes_run_with_congestion_speed(tmp_path):
    doc = hughes_doc(speed={"type": "congestion", "beta": 0.25})
    doc["output_dir"] = str(tmp_path / "out")
    assert main(["solve", str(write_config(tmp_path, doc)), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True
    _, _, rho = read_field_csv(tmp_path / "out" / "solution_m.csv")
    assert np.all(np.isfinite(rho))


def test_hughes_single_time_has_zero_eikonal_residual(tmp_path):
    # one evaluation time leaves no time difference to form: the residual is zero by definition
    doc = hughes_doc(times=[0.5])
    doc["output_dir"] = str(tmp_path / "out")
    assert main(["solve", str(write_config(tmp_path, doc)), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["times"] == [0.5]
    assert report["eikonal_sup"] == 0.0


def test_trivial_congestion_run(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "output_dir": str(tmp_path / "out"),
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"m0": "uniform", "mT": "uniform"},
    }
    cfg = parse_config(write_config(tmp_path, doc))
    assert run(cfg, quiet=True) == 0
    _, _, m = read_field_csv(tmp_path / "out" / "solution_m.csv")
    assert np.array_equal(m, np.ones_like(m))
    _, q = read_series_csv(tmp_path / "out" / "solution_q.csv")
    assert np.array_equal(q, np.zeros_like(q))


def test_starved_congestion_flags_nonconvergence(tmp_path):
    # an unreachable tolerance: files are still written, the report is
    # honest, and the exit code is 2
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "output_dir": str(tmp_path / "out"),
        "grid": {"nt": 13, "nx": 24},
        "congestion": {
            "m0": {"type": "sine", "amplitude": 0.1, "mode": 1},
            "mT": "uniform",
            "tol_fp": 1e-15,
        },
    }
    cfg = parse_config(write_config(tmp_path, doc))
    assert run(cfg, quiet=True) == 2
    for name in ("solution_phi.csv", "solution_m.csv", "report.json", "diagnostics.csv"):
        assert (tmp_path / "out" / name).exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is False


def test_congestion_report_counts_newton_work_per_level(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "output_dir": str(tmp_path / "out"),
        "grid": {"nt": 7, "nx": 8},
        "congestion": {"m0": {"type": "sine", "amplitude": 0.1, "mode": 1}, "mT": "uniform"},
    }
    cfg = parse_config(write_config(tmp_path, doc))
    assert run(cfg, quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    levels = report["diagnostics"]["per_eps"]
    assert any(level["used_newton"] for level in levels)
    for level in levels:
        if level["used_newton"]:
            assert level["newton_nit"] > 0 and level["newton_residual_evals"] > 0
            assert level["krylov_iters"] > 0
        else:
            assert level["newton_nit"] is None and level["newton_residual_evals"] == 0


def test_congestion_default_schedule_runs_below_the_target_level(tmp_path):
    # min density 5e-5 lies below the target level 1e-4, which the default caps at k0
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "output_dir": str(tmp_path / "out"),
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"m0": {"type": "sine", "amplitude": 0.99995, "mode": 1}, "mT": "uniform"},
    }
    cfg = parse_config(write_config(tmp_path, doc))
    assert cfg.spec.eps == cfg.spec.k0 < 1e-4
    assert run(cfg, quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True and len(report["diagnostics"]["per_eps"]) == 1


@pytest.mark.parametrize(
    "model",
    [
        {},
        {"hamiltonian": {"type": "power", "alpha": 1.5},
         "coupling": {"type": "power", "gamma": 2.5}},
    ],
    ids=["quadratic", "power"],
)
def test_identical_configs_byte_identical_outputs(tmp_path, model):
    doc = planning_doc()
    doc["planning"].update(model, m0={"type": "sine", "amplitude": 0.1, "mode": 1})
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["solve", str(path), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert json.loads((tmp_path / "a" / "report.json").read_text())["converged"]
    for name in ("solution_phi.csv", "solution_q.csv", "solution_u.csv",
                 "solution_m.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_planning_report_counts_lbfgs_work(tmp_path):
    doc = planning_doc(output_dir=str(tmp_path / "out"))
    doc["planning"].update(hamiltonian={"type": "power", "alpha": 1.5},
                           coupling={"type": "power", "gamma": 2.5},
                           m0={"type": "sine", "amplitude": 0.1, "mode": 1})
    assert run(parse_config(write_config(tmp_path, doc)), quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    diag = report["diagnostics"]
    for key in ("lbfgs_resets", "lbfgs_skipped_pairs"):
        assert isinstance(diag[key], int) and 0 <= diag[key] <= report["iterations"], key
    # the counters stay out of diagnostics.csv: the objective trace, one row per iterate
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == "iteration,objective"
    assert len(rows) == report["iterations"] + 2


@pytest.mark.parametrize("rung", ["planning_sine", "order1_257x256"])
def test_double_double_iterate_reruns_byte_identical(tmp_path, rung):
    if rung == "planning_sine":
        path = Path(__file__).resolve().parents[1] / "configs" / "planning_sine.yaml"
    else:
        doc = planning_doc(grid={"nt": 257, "nx": 256, "horizon": 1.0})
        doc["planning"].update(order=1, m0={"type": "sine", "amplitude": 0.1, "mode": 1},
                               mT={"type": "cosine", "amplitude": 0.1, "mode": 1})
        path = write_config(tmp_path, doc)
    assert main(["solve", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["solve", str(path), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    diag = json.loads((tmp_path / "a" / "report.json").read_text())["diagnostics"]
    assert diag["exit_reason"] == "converged"
    assert diag["grad_norm_iterate"].startswith("phi + lo")
    for name in ("solution_phi.csv", "solution_q.csv", "solution_u.csv",
                 "solution_m.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# assumption validation


def validate_doc(block, grid=None):
    return {
        "schema_version": 1,
        "mode": "validate",
        "grid": grid or {"nt": 9, "nx": 16},
        "validate": block,
    }


@pytest.mark.parametrize("key, value", [("order", 7), ("tol", "abc"), ("floor", 1e-8),
                                        ("max_iters", -3)])
def test_validate_block_rejects_solver_keys(tmp_path, key, value):
    # validation solves nothing: only the model and marginal keys are accepted
    doc = validate_doc({"m0": "uniform", "mT": "uniform", key: value})
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert str(exc.value) == f"schema violation at validate.{key}: unknown key"
    assert main(["validate", str(path), "--quiet"]) == 1


def test_validation_passes_on_quadratic_defaults(tmp_path):
    doc = validate_doc({"m0": {"type": "sine", "amplitude": 0.1, "mode": 1}, "mT": "uniform"})
    doc["output_dir"] = str(tmp_path / "out")
    cfg = parse_config(write_config(tmp_path, doc))
    assert run_validation(cfg, quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(entry["status"] == "pass" for entry in report["assumptions"])


def test_validation_flags_density_touching_zero(tmp_path, capsys):
    doc = validate_doc({"m0": {"type": "touching"}, "mT": "uniform"})
    doc["output_dir"] = str(tmp_path / "out")
    cfg = parse_config(write_config(tmp_path, doc))
    assert run_validation(cfg) == 2
    printed = capsys.readouterr().out
    assert "FAIL density_lower_bound" in printed
    assert "x index 0" in printed


def test_validation_reports_slope_beyond_reach(tmp_path, capsys):
    # H'(p) = 1.05 p (1 + p^2)^(-0.475) is below 10 for every p the slope
    # bracket tries, so L(1e2) has no maximiser: a failed check, not an abort
    doc = validate_doc({"m0": "uniform", "mT": "uniform",
                        "hamiltonian": {"type": "power", "alpha": 1.05}})
    doc["output_dir"] = str(tmp_path / "out")
    assert main(["validate", str(write_config(tmp_path, doc))]) == 2
    assert "FAIL lagrangian_growth: Legendre transform failed" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    by_name = {e["name"]: e for e in report["assumptions"]}
    assert "exceeds the range of H'" in by_name["lagrangian_growth"]["detail"]
    assert by_name["lagrangian_growth"]["status"] == "fail"
    assert by_name["density_lower_bound"]["status"] == "pass"
    assert by_name["coupling_growth"]["status"] == "pass"


def test_validation_flags_linear_coupling(tmp_path):
    doc = validate_doc({"m0": "uniform", "mT": "uniform", "coupling": "linear"})
    doc["output_dir"] = str(tmp_path / "out")
    cfg = parse_config(write_config(tmp_path, doc))
    assert run_validation(cfg, quiet=True) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    by_name = {e["name"]: e for e in report["assumptions"]}
    assert by_name["strict_convexity_of_coupling"]["status"] == "fail"
    assert "z pair" in by_name["strict_convexity_of_coupling"]["detail"]


def test_validation_on_congestion_config_checks_densities(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "output_dir": str(tmp_path / "out"),
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"m0": "uniform", "mT": "uniform"},
    }
    path = write_config(tmp_path, doc)
    assert main(["validate", str(path), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    by_name = {e["name"]: e for e in report["assumptions"]}
    assert by_name["density_lower_bound"]["status"] == "pass"
    assert by_name["strict_convexity_of_coupling"]["status"] == "skip"


ASSUMPTIONS = {
    "hamiltonian_strictly_convex", "lagrangian_inverts_slope", "lagrangian_growth",
    "lagrangian_nonnegative", "perspective_jointly_convex", "strict_convexity_of_coupling",
    "coupling_slope_consistent", "coupling_growth", "hamiltonian_second_consistent",
    "density_lower_bound",
}
CONFIGS = sorted(
    p.name for p in (Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")
    if p.name != "hughes_constant.yaml"
)


@pytest.mark.parametrize("name", CONFIGS)
def test_validate_every_shipped_config(tmp_path, name):
    path = Path(__file__).resolve().parents[1] / "configs" / name
    reports = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert main(["validate", str(path), "--out", str(out), "--quiet"]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    names = {entry["name"] for entry in json.loads(reports[0])["assumptions"]}
    assert names == ASSUMPTIONS


# the files each mode's run writes
OUTPUTS = {
    "planning": {"solution_phi.csv", "solution_q.csv", "solution_u.csv", "solution_m.csv",
                 "diagnostics.csv", "report.json"},
    "hughes": {"solution_phi.csv", "solution_m.csv", "solution_ystar.csv", "diagnostics.csv",
               "report.json"},
    "validate": {"report.json"},
}
OUTPUTS["congestion"] = OUTPUTS["planning"]


@pytest.mark.parametrize("path", sorted(Path(__file__).resolve().parents[1].glob("configs/*.yaml")),
                         ids=lambda p: p.stem)
def test_every_shipped_config_runs(tmp_path, capsys, path):
    mode = parse_config(path).mode
    command = "validate" if mode == "validate" else "solve"
    assert main([command, str(path), "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == OUTPUTS[mode]
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report)[:2] == ["mode", "seed"] and report["mode"] == mode
    printed = capsys.readouterr().out
    if mode != "validate":
        assert report["converged"] is True
        assert printed.startswith(f"{mode}: ") and printed.count("\n") == 1
        assert "NOT converged" not in printed


def test_validation_rejects_hughes_config(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "hughes",
        "hughes": {
            "x_min": -1.0, "x_max": 1.0, "nx": 11, "times": [0.5],
            "rho0": {"type": "constant", "value": 0.3},
        },
    }
    path = write_config(tmp_path, doc)
    assert main(["validate", str(path), "--quiet"]) == 1


# ---------------------------------------------------------------------------
# entry point plumbing


def test_main_reports_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema_version: 1\nmode: planning\n  broken: {\n")
    assert main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_directory_as_config_is_an_error_line(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot read config file {tmp_path}: Is a directory\n"
    assert "Traceback" not in err


def test_existing_file_as_out_is_an_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, planning_doc())
    assert main(["solve", str(path), "--out", str(taken), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "File exists" in err and "Traceback" not in err


def test_seed_override_lands_in_report(tmp_path):
    doc = planning_doc(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path), "--seed", "42", "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 42


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_seed_override_is_range_checked(tmp_path, capsys, command):
    doc = planning_doc(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    assert main([command, str(path), "--seed", "-5", "--quiet"]) == 1
    assert capsys.readouterr().err == "error: range violation at --seed: -5 below minimum 0\n"
    assert not (tmp_path / "out").exists()


def test_quiet_suppresses_progress(tmp_path, capsys):
    doc = planning_doc(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_python_dash_m_runs_from_a_checkout(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "mfgplan", "solve", "configs/planning_sine.yaml",
         "--out", str(tmp_path / "out"), "--quiet"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["diagnostics"]["exit_reason"] == "converged"


# ---------------------------------------------------------------------------
# reruns and the one output writer


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def _without_wall_time(path: Path) -> bytes:
    """The file's bytes; for ``report.json``, less its ``wall_time`` line."""
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "report.json":
        lines = [line for line in lines if not line.startswith(b'  "wall_time": ')]
    return b"".join(lines)


@pytest.mark.parametrize("name", ["hughes_constant", "planning_sine", "congestion_sine"])
def test_rerun_over_stale_outputs_writes_a_fresh_runs_bytes(tmp_path, name):
    config = str(SHIPPED / f"{name}.yaml")
    fresh = tmp_path / "fresh"
    assert main(["solve", config, "--out", str(fresh), "--quiet"]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    stale = {  # every output file already there, longer or shorter than a fresh run's
        "padded": lambda data: data + bytes(range(256)) * 4096,  # 1 MiB of junk after it
        "cut": lambda data: data[:1],
    }
    for kind, make in stale.items():
        out = tmp_path / kind
        out.mkdir()
        for file in names:
            (out / file).write_bytes(make((fresh / file).read_bytes()))
        assert main(["solve", config, "--out", str(out), "--quiet"]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        for file in names:
            assert _without_wall_time(out / file) == _without_wall_time(fresh / file), (kind, file)


@pytest.mark.parametrize("command, name", [
    ("solve", "planning_sine"), ("solve", "congestion_sine"), ("solve", "hughes_constant"),
    ("validate", "validate_quadratic"),
])
def test_every_output_goes_through_the_one_writer(tmp_path, monkeypatch, command, name):
    written = []
    write = cli._write_output

    def spy(path, data):
        written.append(Path(path))
        write(path, data)

    monkeypatch.setattr(cli, "_write_output", spy)
    assert main([command, str(SHIPPED / f"{name}.yaml"), "--out", str(tmp_path), "--quiet"]) == 0
    assert sorted(written) == sorted(tmp_path.iterdir())


def test_report_bytes_are_what_json_dump_wrote(tmp_path):
    summary = {
        "mode": "planning",
        "seed": np.int64(3),
        "field": np.array([[0.1, np.nan], [np.inf, -np.inf]]),
        "scalars": [np.float64(1 / 3), np.float32(1.5), np.int32(-7), np.bool_(True)],
        "nested": {"empty": np.array([]), "deeper": {"range": np.arange(3), "text": "pré"}},
        "nan": float("nan"),
        "inf": float("-inf"),
    }
    # the reference: json.dump into a text file, then the closing newline
    with open(tmp_path / "reference.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=lambda a: a.tolist())
        fh.write("\n")
    cli._write_report(tmp_path / "report.json", summary)
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
