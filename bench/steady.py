"""Steadiness check: run each workload on several seeds and print, for every
end-to-end metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median) next to the metric's bound from
BENCHMARK.json.

    python3 bench/steady.py                        # 10 seeds, every workload
    python3 bench/steady.py --seeds 5 --workload exact-analyze

Run from the root of a checkout.  Seeds are 1..N and each run lasts
run_seconds from BENCHMARK.json.  Exits 1 when any run fails or is not
correct, when the failed share differs between runs, or when the spread of
a metric other than setup_s exceeds its bound; a spread above a third of its
bound is marked.  setup_s is printed but not held to its bound across seeds:
generating the first round's inputs (rejection sampling) costs more on some
seeds than on others, so its spread over seeds measures the seeds; its bound
is for the median over a set of seeds, which a slower set-up moves.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        values, shares, correct = {}, set(), True
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            shares.add((result["failed"] / result["attempted"]))
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        print(f"{name}: {args.seeds} seeds, correct={correct}, failed shares {sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            ok &= metric == "setup_s" or spread <= bound
            print(f"  {metric:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound}{flag}")
            print("    runs " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
