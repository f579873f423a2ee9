"""Smoke runs of the experiment scripts at tiny sizes: each must exit 0."""

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
