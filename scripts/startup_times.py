"""Start-up cost per shipped config: a fresh ``python -m mfgplan`` process, timed whole.

For each ``configs/*.yaml``, runs
``python -m mfgplan {solve|validate} <config> --out <tempdir> --quiet`` in a
fresh interpreter ``--repeat`` times (``validate`` for a validate-mode config)
and prints one row per config: the median wall time and its quartiles, in
seconds, the median peak resident set size of the process (its own
``ru_maxrss``, read per child with ``os.wait4``), in MB, and the exit codes
seen.  Interpreter start, imports, parsing, the solve and the writes are all in
the time, so it shows what a command-line user waits for, imports included.  ``--src`` times another checkout's package.

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


def time_run(config: Path, src: Path) -> tuple[float, float, int]:
    """Wall time, peak RSS (MB) and exit code of a fresh ``python -m mfgplan`` run of ``config``."""
    mode = yaml.safe_load(config.read_text()).get("mode")
    command = "validate" if mode == "validate" else "solve"
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "mfgplan", command, str(config), "--out", out, "--quiet"]
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="fresh runs per config")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding mfgplan")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'config':26s} {'median_s':>9s} {'q1_s':>7s} {'q3_s':>7s} {'peak_rss_mb':>11s}  exit")
    for path in sorted(ROOT.glob("configs/*.yaml")):
        times, rss, codes = zip(*(time_run(path, args.src.resolve()) for _ in range(args.repeat)))
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        exits = ",".join(str(c) for c in sorted(set(codes)))
        print(f"{path.name:26s} {median:9.3f} {q1:7.3f} {q3:7.3f} {np.median(rss):11.1f}  {exits}")


if __name__ == "__main__":
    main()
