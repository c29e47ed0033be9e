#!/usr/bin/env python3
"""Runs a workload over several seeds and prints each end-to-end metric's
median and spread: the distance between the first and third quartiles as a
share of the median, next to the bound BENCHMARK.json sets for it.

    python3 perfbench/spread.py --workload wire_p2p --seeds 10 [--first-seed 1]

Run from the repository root. Exits non-zero if a run fails or a spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: failed ({result['failed']} of {result['attempted']})")
            return 1
        runs.append(result["metrics"])

    ok = True
    for m in spec["end_to_end"]:
        values = [r[m["name"]]["value"] for r in runs]
        q = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q[2] - q[0]) / med
        flag = ""
        if spread > m["bound"]:
            flag, ok = "  OVER BOUND", False
        print(f"{m['name']:10s} median {med:12.5g} {m['unit']:4s} "
              f"spread {spread:.3f} (bound {m['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
