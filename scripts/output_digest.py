"""Digest of every output a run writes: compare two checkouts' answers byte for byte.

Runs every ``configs/*.yaml`` through ``mfgplan solve`` twice into the same
directory and prints one ``sha256  relative/path`` line per output file of
the second run, plus one line for its exit code.  ``report.json`` is hashed
with its top-level ``wall_time`` removed, the only field that changes
between identical runs.  The second run overwrites the first one's files and
must leave the same digests: if one differs, the script exits 1 and names
the first such file.  With ``--perfbench-seed N`` it also runs, the same
way, every instance ``perfbench/inputs.py`` generates for that seed and
hashes each ``hopf_lax`` point query's result (value and optimizer, or the
error it raised).  Runs write into a temporary directory; nothing is written
under ``perfbench/``.

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


def _digests(rc: int, out: Path, name: str) -> dict[str, str]:
    """The digest of a run's exit code ``rc`` and of each file in ``out``, by relative path."""
    digests = {f"{name}/exit_code": _sha(str(rc).encode())}
    for path in sorted(out.iterdir()) if out.exists() else []:
        data = path.read_bytes()
        if path.name == "report.json":
            try:
                report = json.loads(data)
            except ValueError:  # hashed as it is: no readable report hashes the same
                pass
            else:
                report.pop("wall_time", None)
                data = json.dumps(report, indent=2).encode()
        digests[f"{name}/{path.name}"] = _sha(data)
    return digests


def _digest_run(config: Path, out: Path, name: str) -> list[str]:
    """Solve ``config`` into ``out`` twice; the digest lines of the second run.

    The second run overwrites the first one's files: exit 1, naming the first file whose
    digest differs, unless it writes exactly what the first run wrote."""
    argv = ["solve", str(config), "--out", str(out), "--quiet"]
    first = _digests(cli.main(argv), out, name)
    second = _digests(cli.main(argv), out, name)
    changed = [path for path, digest in second.items() if first.get(path) != digest]
    if changed:
        sys.exit(f"error: a rerun into the same directory changed {changed[0]}")
    return [f"{digest}  {path}" for path, digest in second.items()]


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
