"""Start-up cost per shipped config: a fresh ``python -m mfgplan`` process, timed whole.

For each ``configs/*.yaml``, runs
``python -m mfgplan {solve|validate} <config> --out <tempdir> --quiet`` in a
fresh interpreter ``--repeat`` times (``validate`` for a validate-mode config)
and prints one row per config: the median wall time and its quartiles, in
seconds, and the exit codes seen.  Interpreter start, imports, parsing, the
solve and the writes are all in the time, so it shows what a command-line user
waits for, imports included.  ``--src`` times another checkout's package.

    python3 scripts/startup_times.py [--repeat 7] [--src path/to/src]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent


def time_run(config: Path, src: Path) -> tuple[float, int]:
    """Wall time and exit code of one fresh ``python -m mfgplan`` run of ``config``."""
    mode = yaml.safe_load(config.read_text()).get("mode")
    command = "validate" if mode == "validate" else "solve"
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "mfgplan", command, str(config), "--out", out, "--quiet"]
        started = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
        return time.perf_counter() - started, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="fresh runs per config")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding mfgplan")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'config':26s} {'median_s':>9s} {'q1_s':>7s} {'q3_s':>7s}  exit")
    for path in sorted(ROOT.glob("configs/*.yaml")):
        times, codes = zip(*(time_run(path, args.src.resolve()) for _ in range(args.repeat)))
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        exits = ",".join(str(c) for c in sorted(set(codes)))
        print(f"{path.name:26s} {median:9.3f} {q1:7.3f} {q3:7.3f}  {exits}")


if __name__ == "__main__":
    main()
