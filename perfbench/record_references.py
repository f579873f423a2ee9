"""Record the correctness gate's reference values from the current solvers.

    python3 perfbench/record_references.py

Run from the root of a checkout whose solvers are trusted; it solves every
instance of every workload once, for every pool input set and held-out input
set (or for the sets given with ``--sets``), and writes ``references.jsonl``.
The committed file was recorded from the unmodified solvers, before any
optimisation; re-recording it after a solver change would let that change
grade its own answers.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import gate
import inputs
import worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=gate.REFERENCES)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full")
    parser.add_argument("--sets", type=int, nargs="*", help="input sets to record "
                        "(default: the pool and the held-out sets)")
    args = parser.parse_args(argv)

    package = worker._import_program(Path.cwd())
    refs: dict = {}
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in inputs.WORKLOADS:
            held_out = inputs.input_sets(name, inputs.HELD_OUT_SEED)
            for input_set in args.sets or [*range(inputs.POOL), *held_out]:
                instances, _queries = inputs.build(name, input_set, args.size)
                table = refs.setdefault(name, {})[str(input_set)] = {}
                for inst in instances:
                    path = Path(tmp) / f"{inst.name}.yaml"
                    path.write_text(inputs.dump_yaml(inst.doc))
                    config = package.cli.parse_config(path)
                    config.output_dir = Path(tmp) / inst.name
                    rc = package.cli.run(config, quiet=True)
                    table[inst.key] = gate.fingerprint(config.mode, config.output_dir)
                    print(f"{name} {inst.name}: exit status {rc}", flush=True)
    gate.save_references(refs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
