"""Smoke runs of the experiment scripts at tiny sizes: each must exit 0."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("refinement_study.py", ("--levels", "2")),
        ("congestion_sweep.py", ("--alphas", "0.5", "1.5", "--nt", "7", "--nx", "8")),
        ("refinement_study.py", ("--order", "1", "--levels", "2")),
    ],
)
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    if name == "refinement_study.py":  # every level prints its exit reason
        rows = [line for line in proc.stdout.splitlines() if line.split()[0][0].isdigit()]
        assert len(rows) == int(args[-1])
        assert all(line.split()[-1] == "converged" for line in rows)
    if name == "congestion_sweep.py":  # one converged line per alpha, one default level
        rows = [dict(f.split("=") for f in line.split()) for line in proc.stdout.splitlines()
                if line.startswith("alpha=")]
        assert [row["alpha"] for row in rows] == ["0.50", "1.50"]
        assert all(row["converged"] == "True" for row in rows)
        assert all(row["iters_per_level"].isdigit() for row in rows)
        assert all(int(row["krylov_iters"]) > 0 for row in rows)


def test_hughes_fronts_writes_profiles(tmp_path):
    proc = run_script("hughes_fronts.py", "--nx", "41", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rho_congestion.csv",
        "rho_linear.csv",
    ]
    # eight times per speed law, each with a finite eikonal residual
    sups = [line.split("eikonal sup=")[1] for line in proc.stdout.splitlines()
            if "eikonal sup=" in line]
    assert len(sups) == 16
    assert all(math.isfinite(float(s)) for s in sups)


def test_output_digest_repeats_exactly():
    runs = [run_script("output_digest.py", "--perfbench-seed", "3", "--size", "tiny")
            for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    digests, names = zip(*(line.split() for line in runs[0].stdout.splitlines()))
    # the shipped configs and the generated instances all exit 0; queries are hashed too
    assert {name.split("/")[0] for name in names} == {"configs", "perfbench"}
    assert any("/query_" in name for name in names)
    exits = {d for d, name in zip(digests, names) if name.endswith("/exit_code")}
    assert exits == {hashlib.sha256(b"0").hexdigest()}


def test_startup_times_prints_one_row_per_config():
    proc = run_script("startup_times.py", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == sorted(p.name for p in (ROOT / "configs").glob("*.yaml"))
    assert all(float(row[1]) > 0.0 and float(row[4]) > 0.0 and row[-1] == "0" for row in rows)
