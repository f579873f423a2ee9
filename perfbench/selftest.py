"""Fast self-test of the benchmark harness at tiny instance sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It records tiny reference values, then
shows three things and exits non-zero if any fails:

1. every metric named in ``BENCHMARK.json`` is emitted with its unit, for
   every workload, untraced and traced;
2. perturbing one stored reference value makes the failed fraction rise,
   while solving the instances again at a tighter tolerance (planning 100,
   congestion 10 times: its fixed-point residual floors near 5e-8), a
   correct answer reached another way, still passes the gate;
3. a traced pass writes byte-identical solution CSVs to an untraced one.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import gate
import inputs
import record_references
import tracing
import worker

ROOT = Path.cwd().resolve()
HERE = Path(__file__).resolve().parent
SEED = 0


def _require(condition, detail) -> None:
    if not condition:
        raise AssertionError(detail)


def _bench(refs: Path, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(SEED), "--seconds", "1",
           "--size", "tiny", "--references", str(refs), *args]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_names(refs: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(refs, "--workload", "all", "--trace", str(trace))
        _require(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
        _require(result["correct"] and result["failed"] == 0, result)
        for name in inputs.WORKLOADS:
            got = {k.split("/", 1)[1]: v for k, v in result["metrics"].items()
                   if k.startswith(name + "/")}
            want = {m["name"]: m["unit"] for m in spec[key]}
            _require(set(got) == set(want), (name, set(got) ^ set(want)))
            for metric, entry in got.items():
                _require(entry["unit"] == want[metric], (name, metric, entry))
                _require(isinstance(entry["value"], (int, float)), (name, metric, entry))
    print("ok: every end-to-end and per-layer metric is emitted with its unit")


def check_perturbed_reference(refs: Path, scratch: Path) -> None:
    table = gate.load_references(refs)
    fp = table["plan-ladder"][str(inputs.input_sets("plan-ladder", SEED)[0])]["o0-9x8"]
    fp["phi"][4] += 1e-3
    bad = scratch / "perturbed.jsonl"
    gate.save_references(table, bad)
    good = _bench(refs, "--workload", "plan-ladder")
    worse = _bench(bad, "--workload", "plan-ladder")
    good_frac = good["failed"] / good["attempted"]
    worse_frac = worse["failed"] / worse["attempted"]
    _require(worse_frac > good_frac and not worse["correct"], (good, worse))
    print(f"ok: a perturbed reference raises failed_frac {good_frac:.3g} -> {worse_frac:.3g}")


def check_tighter_solve_passes(refs: Path, scratch: Path) -> None:
    package = worker._import_program(ROOT)
    table = gate.load_references(refs)
    checked = differ = 0
    for name, block, key, factor in (("plan-ladder", "planning", "tol", 1e-2),
                                     ("plan-power", "planning", "tol", 1e-2),
                                     ("congestion", "congestion", "tol_fp", 1e-1)):
        for inst in inputs.generate(name, SEED, "tiny").instances:
            doc = copy.deepcopy(inst.doc)
            doc[block][key] = factor * inst.meta[key]
            path = scratch / f"tight-{inst.name}.yaml"
            path.write_text(inputs.dump_yaml(doc))
            config = package.cli.parse_config(path)
            config.output_dir = scratch / f"tight-{name}-{inst.name}"
            rc = package.cli.run(config, quiet=True)
            ref = table[name][str(inst.input_set)][inst.key]
            problems = gate.check_instance(config.mode, config.output_dir, rc, inst.meta, ref)
            _require(not problems, (name, inst.name, problems))
            checked += 1
            differ += gate.fingerprint(config.mode, config.output_dir) != ref
    # the gate must have accepted answers that differ from the references
    _require(differ, "every tighter solve reproduced its reference exactly")
    print(f"ok: {checked} instances solved at a tighter tolerance pass the gate "
          f"({differ} differ from their references)")


def check_traced_csvs_identical(refs: Path, scratch: Path) -> None:
    package = worker._import_program(ROOT)
    for name in inputs.WORKLOADS:
        bench = worker.Bench(package, inputs.generate(name, SEED, "tiny"), scratch / name)
        bench.setup()
        bench.use_references(gate.load_references(refs))
        bench.run_pass("plain", defaultdict(list), [])
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            bench.run_pass("traced", defaultdict(list), [], tracer)
        finally:
            tracer.uninstall()
        _require(tracer.spans, name)
        compared = 0
        for plain in sorted((scratch / name / "plain").rglob("solution_*.csv")):
            traced = scratch / name / "traced" / plain.relative_to(scratch / name / "plain")
            _require(plain.read_bytes() == traced.read_bytes(), plain)
            compared += 1
        _require(compared, name)
        _require(bench.failed == 0, bench.problems)
    print("ok: traced and untraced passes write identical solution CSVs")


def main() -> int:
    scratch = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        refs = scratch / "tiny-references.jsonl"
        sets = sorted({s for name in inputs.WORKLOADS for s in inputs.input_sets(name, SEED)})
        record_references.main(["--size", "tiny", "--out", str(refs),
                                "--sets", *map(str, sets)])
        check_metric_names(refs)
        check_perturbed_reference(refs, scratch)
        check_tighter_solve_passes(refs, scratch)
        check_traced_csvs_identical(refs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
