"""Digest of every output a run writes: compare two checkouts' answers byte for byte.

Runs every ``configs/*.yaml`` through ``mfgplan solve`` and prints one
``sha256  relative/path`` line per output file, plus one line for each run's
exit code.  ``report.json`` is hashed with its top-level ``wall_time``
removed, the only field that changes between identical runs.  With
``--perfbench-seed N`` it also runs every instance ``perfbench/inputs.py``
generates for that seed and hashes each ``hopf_lax`` point query's result
(value and optimizer, or the error it raised).  Runs write into a temporary
directory; nothing is written under ``perfbench/``.

    python3 scripts/output_digest.py [--perfbench-seed 3 [--size tiny|full]]

Two checkouts give the same answers when their outputs are identical.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from mfgplan import cli, hughes

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_run(config: Path, out: Path, name: str) -> list[str]:
    """Solve ``config`` into ``out``; the digest lines of its exit code and files."""
    rc = cli.main(["solve", str(config), "--out", str(out), "--quiet"])
    lines = [f"{_sha(str(rc).encode())}  {name}/exit_code"]
    for path in sorted(out.iterdir()) if out.exists() else []:
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("wall_time", None)
            data = json.dumps(report, indent=2).encode()
        lines.append(f"{_sha(data)}  {name}/{path.name}")
    return lines


def _query_result(spec, t: float, x: float) -> str:
    try:
        value, ystar = hughes.hopf_lax(spec, t, x)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return f"{value.hex()} {ystar.hex()}"


def _digest_perfbench(seed: int, size: str, work: Path) -> list[str]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    lines = []
    for name in inputs.WORKLOADS:
        workload = inputs.generate(name, seed, size)
        configs = {}
        for inst in workload.instances:
            path = work / "perfbench" / name / f"{inst.name}.yaml"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(inputs.dump_yaml(inst.doc))
            configs[inst.name] = path
            lines += _digest_run(path, work / "out" / name / inst.name,
                                 f"perfbench/{name}/{inst.name}")
        for k, q in enumerate(workload.queries):
            spec = cli.parse_config(configs[q.window]).spec
            result = _query_result(spec, spec.times[q.t_index], float(spec.xs[q.x_index]))
            lines.append(f"{_sha(result.encode())}  perfbench/{name}/query_{k}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--perfbench-seed", type=int, help="also digest this seed's instances")
    ap.add_argument("--size", choices=("tiny", "full"), default="full",
                    help="instance sizes for --perfbench-seed")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = []
        for config in sorted((ROOT / "configs").glob("*.yaml")):
            lines += _digest_run(config, work / "configs" / config.stem, f"configs/{config.stem}")
        if args.perfbench_seed is not None:
            lines += _digest_perfbench(args.perfbench_seed, args.size, work)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
