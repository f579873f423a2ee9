"""One workload in a fresh interpreter: set up, measure, gate, report.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once set-up is done (imports, config generation, ``cli.parse_config`` on
every instance), then, unless ``--setup-only`` is given, measures the
workload and prints one JSON line with the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy
import yaml

import gate
import inputs
import tracing


def _import_program(root: Path):
    """Import ``mfgplan`` from the checkout's ``src``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("mfgplan")
    if Path(package.__file__).resolve().parent.parent != src:
        raise ImportError(f"mfgplan was imported from {package.__file__}, not from {src}")
    for name in ("grid", "model", "planning", "recovery", "congestion", "hughes", "cli"):
        importlib.import_module(f"mfgplan.{name}")
    return package


class Bench:
    """Runs passes over one workload and keeps what the metrics need."""

    def __init__(self, package, workload: inputs.Workload, work: Path):
        self.mf = package
        self.workload = workload
        self.work = work
        self.refs: dict = {}  # input set -> instance key -> reference fingerprint
        self.paths: dict[str, Path] = {}
        self.configs = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # first few failure messages
        self.incorrect = 0

    def use_references(self, references: dict) -> None:
        self.refs = references.get(self.workload.name, {})

    def setup(self) -> None:
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for inst in self.workload.instances:
            path = cfg_dir / f"{inst.name}.yaml"
            path.write_text(inputs.dump_yaml(inst.doc))
            self.paths[inst.name] = path
            self.configs[inst.name] = self.mf.cli.parse_config(path)

    def _record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.incorrect += any(kind == "incorrect" for kind, _ in problems)
            for kind, msg in problems:
                line = f"{label}: {kind}: {msg}"
                if len(self.problems) < 20 and line not in self.problems:
                    self.problems.append(line)

    def run_pass(self, tag: str, samples, latencies, tracer=None) -> float:
        """One closed-loop pass over every instance, then every query.

        Returns the pass's wall time.  ``samples`` collects each instance's
        ``cli.run`` time, ``latencies`` each query's time in milliseconds.
        """
        cli = self.mf.cli
        started = time.perf_counter()
        for k, inst in enumerate(self.workload.instances):
            out = self.work / tag / inst.name
            if tracer is not None:
                tracer.trace_id = k
                config = cli.parse_config(self.paths[inst.name])
            else:
                config = self.configs[inst.name]
            config.output_dir = out
            t0 = time.perf_counter()
            try:
                rc = cli.run(config, quiet=True)
            except Exception as exc:  # a failing instance must not stop the run
                rc = exc
            samples[inst.name].append(time.perf_counter() - t0)
            ref = self.refs.get(str(inst.input_set), {}).get(inst.key)
            try:
                problems = gate.check_instance(config.mode, out, rc, inst.meta, ref)
            except (OSError, ValueError, KeyError) as exc:
                problems = [("incorrect", f"unreadable output: {exc!r}")]
            self._record(inst.name, problems)
        if self.workload.queries:
            self._run_queries(tag, latencies, tracer)
        return time.perf_counter() - started

    def _run_queries(self, tag: str, latencies, tracer) -> None:
        hughes = self.mf.hughes
        windows = {}
        for inst in self.workload.instances:
            path = self.work / tag / inst.name / "solution_phi.csv"
            windows[inst.name] = gate.read_field(path) if path.exists() else None
        base = len(self.workload.instances)
        for k, q in enumerate(self.workload.queries):
            spec = self.configs[q.window].spec
            t, x = spec.times[q.t_index], float(spec.xs[q.x_index])
            if tracer is not None:
                tracer.trace_id = base + k
            t0 = time.perf_counter()
            try:
                value = hughes.hopf_lax(spec, t, x)[0]
            except Exception as exc:  # a failing query must not stop the run
                value = exc
            latencies.append(1e3 * (time.perf_counter() - t0))
            phi = windows[q.window]
            if phi is None:
                problems = [("incorrect", f"window {q.window} wrote no solution")]
            else:
                problems = gate.check_query(value, float(phi[q.t_index, q.x_index]))
            self._record(f"query {k}", problems)

    def passes(self, tag: str, until: float, tracer=None):
        """Whole passes until the next one would end after ``until`` (at least one)."""
        samples, latencies = defaultdict(list), []
        count = 0
        while True:
            took = self.run_pass(tag, samples, latencies, tracer)
            count += 1
            if time.perf_counter() + took > until:
                return samples, latencies, count

    def wall_s(self, samples) -> float:
        """Median ``cli.run`` time of each instance, summed over the instances."""
        return sum(statistics.median(samples[i.name]) for i in self.workload.instances)


def measure(bench: Bench, seconds: float) -> dict:
    start = time.perf_counter()
    samples, latencies, count = bench.passes("plain", start + seconds)
    if not latencies:
        # instance workloads: a request is a whole pass, its cli.run times summed.
        # Single solves are no steadier sample: the median solve of a ladder
        # is a sub-second rung whose time swings with the host's speed.
        latencies = [1e3 * sum(times) for times in zip(*samples.values())]
    metrics = {
        "wall_s": {"value": bench.wall_s(samples), "unit": "s"},
        "pass_frac": {"value": 1.0 - bench.failed / bench.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "query_ms_p50": {"value": float(np.percentile(latencies, 50)), "unit": "ms"},
        "query_ms_p95": {"value": float(np.percentile(latencies, 95)), "unit": "ms"},
    }
    return {"metrics": metrics, "passes": count}


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Untraced passes for half the time, then traced passes for the rest."""
    start = time.perf_counter()
    plain, _, _ = bench.passes("plain", start + seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(bench.mf)
    try:
        traced, _, count = bench.passes("traced", start + seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    overhead = bench.wall_s(traced) - bench.wall_s(plain)
    # tracing must not change a single output byte
    for inst in bench.workload.instances:
        for a in sorted((bench.work / "plain" / inst.name).glob("solution_*.csv")):
            b = bench.work / "traced" / inst.name / a.name
            if not b.exists() or a.read_bytes() != b.read_bytes():
                bench.incorrect += 1
                bench.problems.append(f"{inst.name}: traced {a.name} differs from untraced")
    return {"metrics": tracer.metrics(count, overhead), "passes": count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--references", type=Path, default=gate.REFERENCES)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = _import_program(args.root)
    workload = inputs.generate(args.workload, args.seed, args.size)
    bench = Bench(package, workload, args.work)
    bench.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # harness-only work, kept out of the timed set-up
    bench.use_references(gate.load_references(args.references))

    if args.trace:
        result = measure_traced(bench, args.seconds, args.spans)
    else:
        result = measure(bench, args.seconds)
    result.update(
        correct=bench.incorrect == 0,
        attempted=bench.attempted,
        failed=bench.failed,
        problems=bench.problems,
        input_sets=workload.input_sets,
        env={"python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "pyyaml": yaml.__version__},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
