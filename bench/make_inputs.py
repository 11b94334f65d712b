"""Write the first round of a workload's input files for a seed and print
its ops, one ``morselat ...`` command line per op, in round order.

    python3 bench/make_inputs.py --workload grid-pipeline --seed 1 --out inputs/

The files are the ones ``run.py`` generates and times in its first round for
the same seed; later rounds draw from (seed, round) the same way.
"""

from __future__ import annotations

import argparse
import os
import shlex

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    run.load_cli()  # build_verify reads the tag list from morselat.verify
    ops = workloads.build(args.workload, args.seed, os.path.abspath(args.out), 0, set())
    for op in ops:
        fault = f"  # known fault: exits {op.known_fault[0]}" if op.known_fault else ""
        print(f"morselat {shlex.join(op.argv)}{fault}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
