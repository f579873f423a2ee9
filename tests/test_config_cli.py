"""Config parsing, CSV round-trips, run dispatch, and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

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


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("schema_version: 1\nmode: planning\n  bad: {\n")
    with pytest.raises(ConfigError, match=r"line 3, column"):
        parse_config(path)


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


def test_congestion_schedule_must_be_list(tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "congestion",
        "grid": {"nt": 13, "nx": 24},
        "congestion": {"m0": "uniform", "mT": "uniform", "eps_schedule": 0.1},
    }
    with pytest.raises(ConfigError, match="eps_schedule"):
        parse_config(write_config(tmp_path, doc))


def test_repo_example_configs_parse():
    for name, expected in (
        ("planning_uniform.yaml", PlanningSpec),
        ("planning_sine.yaml", PlanningSpec),
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


# ---------------------------------------------------------------------------
# assumption validation


def validate_doc(block, grid=None):
    return {
        "schema_version": 1,
        "mode": "validate",
        "grid": grid or {"nt": 9, "nx": 16},
        "validate": block,
    }


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
    "coupling_slope_consistent", "coupling_growth", "density_lower_bound",
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


def test_seed_override_lands_in_report(tmp_path):
    doc = planning_doc(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path), "--seed", "42", "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 42


def test_quiet_suppresses_progress(tmp_path, capsys):
    doc = planning_doc(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    assert main(["solve", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
