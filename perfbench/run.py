"""Benchmark of the mfgplan solvers, run from the root of a checkout.

    python3 perfbench/run.py --workload plan-ladder --seed 3 --seconds 20 --trace 0

Generates YAML run descriptions from the seed, runs them in-process through
``cli.parse_config`` and ``cli.run`` exactly as ``mfgplan solve`` would,
checks every output against the correctness gate, and prints each metric
by name and unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
layers' public functions (see ``tracing.py``) and reports the per-layer
metrics and the tracing overhead instead.  ``--workload all`` runs every
workload in turn.

Each workload runs closed-loop, one instance or query after another, in a
fresh interpreter importing ``mfgplan`` from ``src/`` of the checkout; the
BLAS/OpenMP thread pools are capped at the number of usable cores.  Scratch
files go to ``.perfbench_work/`` in the checkout; the spans of a traced run
and a JSON record of every result, with its environment, stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters timed to READY; the last one measures
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("pass_frac", "ratio"),
              ("peak_rss_mb", "MB"), ("query_ms_p50", "ms"), ("query_ms_p95", "ms"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(_cores())
    env.pop("PYTHONPATH", None)  # the worker imports mfgplan from src/ only
    return env


def _run_workload(root: Path, work: Path, name: str, args) -> dict:
    """Set up ``SETUP_SAMPLES`` fresh interpreters; the last one measures."""
    run_dir = work / f"run-{name}-{os.getpid()}"
    spans = work / f"spans-{_tag(name, args)}.jsonl"
    base = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(run_dir), "--spans", str(spans),
            "--size", args.size, "--references", str(args.references.resolve())]
    setup_times = []
    try:
        for k in range(SETUP_SAMPLES):
            cmd = base if k == SETUP_SAMPLES - 1 else base + ["--setup-only"]
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                    env=_child_env(), cwd=root)
            try:
                ready = proc.stdout.readline()
                setup_times.append(time.perf_counter() - started)
                out, _ = proc.communicate(timeout=args.seconds + 120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if ready.strip() != "READY" or proc.returncode != 0:
                raise BenchError(f"worker for {name} failed with exit status "
                                 f"{proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"worker for {name} printed no result")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_s"] = statistics.median(setup_times)
    result["env"].update(nproc=_cores(), thread_cap=_cores(), machine=platform.machine())
    return result


def _tag(name: str, args) -> str:
    size = "" if args.size == "full" else f"-{args.size}"
    return f"{name}-seed{args.seed}{size}"


def _metrics(result: dict, trace: int) -> dict:
    if trace:
        return result["metrics"]
    metrics = dict(result["metrics"])
    metrics["setup_s"] = {"value": result["setup_s"], "unit": "s"}
    return {name: metrics[name] for name, _unit in END_TO_END}


def _print_block(name: str, seed: int, trace: int, result: dict, metrics: dict) -> None:
    print(f"== {name}  seed {seed} (input sets {result['input_sets']})  "
          f"{'traced' if trace else 'untraced'}  {result['passes']} pass(es)")
    print("   env: " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for metric, entry in metrics.items():
        print(f"   {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"   failed_frac = {result['failed']}/{result['attempted']} = {failed_frac:.6g}"
          f"   correct = {result['correct']}")
    for problem in result["problems"]:
        print(f"   ! {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfgplan benchmark (run from the checkout root)")
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="instance sizes; tiny serves the harness self-test")
    parser.add_argument("--references", type=Path, default=HERE / "references.jsonl",
                        help="reference values for the correctness gate")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    if not (root / "src" / "mfgplan" / "__init__.py").is_file():
        print(f"error: {root} holds no src/mfgplan; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result = _run_workload(root, work, name, args)
            metrics = _metrics(result, args.trace)
            _print_block(name, args.seed, args.trace, result, metrics)
            record = {"workload": name, "seed": args.seed, "trace": args.trace,
                      **result, "metrics": metrics}
            (work / f"result-{_tag(name, args)}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1) + "\n")
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
