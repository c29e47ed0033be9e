#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload wire_p2p --seed 1 --seconds 8 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), configured as a Release build of perfbench/CMakeLists.txt,
which pulls in the library from the repository root. The program's last
stdout line is one JSON object; this script checks that it names exactly the
metrics BENCHMARK.json lists for the requested mode, then prints it as its
own last line. The exit code is the program's (non-zero on any failed
operation), or 1 when the build fails or the output is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        want = expected_metrics(args.trace)
        binary = build(build_dir)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"set-up failed: {e}")
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        log(f"perfbench printed no result (exit {proc.returncode})")
        return 1
    if got != want and proc.returncode == 0:
        log(f"metric set mismatch: missing {sorted(want - got)}, "
            f"unexpected {sorted(got - want)}")
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
