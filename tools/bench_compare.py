#!/usr/bin/env python3
"""Compare BENCH JSON lines against a checked-in baseline (the CI perf gate).

The bench binaries emit one machine-readable line per measurement:

    BENCH {"bench":"build","solver":"dijkstra","threads":1,"batch":4,...}

CI extracts those lines into .jsonl files (one JSON object per line) and this
script checks them against the tracked keys in a baseline file, failing on
regressions beyond each key's tolerance. See docs/bench-json.md for the
schema and bench/baselines/ci-tiny.json for the gated baseline.

Usage:
    bench_compare.py --baseline bench/baselines/ci-tiny.json \
        --jsonl bench_build.jsonl [--jsonl bench_throughput.jsonl] [--update]
    bench_compare.py --self-test

A baseline entry looks like:

    {
      "name": "build/dijkstra t1 b4 kernel settles",
      "match": {"bench": "build", "solver": "dijkstra", "threads": 1,
                "batch": 4, "phase": "kernel"},
      "key": "settles",
      "value": 38755,
      "direction": "lower_is_better",   # or "higher_is_better"
      "tolerance": 0.25,                # optional, overrides default
      "min": 1000,                      # optional absolute floor
      "note": "free-form context"
    }

A record regresses when it moves past value*(1+tolerance) (lower_is_better)
or value*(1-tolerance) (higher_is_better), or crosses an absolute
"min"/"max" bound. Every tracked entry must match exactly one record —
schema drift (renamed keys, missing configurations, duplicated emission) is
a failure too, so the gated schema stays honest.

--update rewrites the baseline's "value" fields from the measured records
(keeping directions, tolerances, and notes) after an intentional change. It
refuses, writing nothing, unless every tracked entry matches exactly one
record, so the records must come from every bench the baseline tracks.
"""

import argparse
import copy
import json
import sys

DEFAULT_TOLERANCE = 0.25


def load_records(paths):
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise SystemExit(
                        f"{path}:{line_no}: not valid JSON ({e}): {line!r}"
                    )
    return records


def find_matches(records, match):
    return [
        r for r in records if all(r.get(k) == v for k, v in match.items())
    ]


def check_entry(entry, records, default_tolerance):
    """Returns (ok, measured_value_or_None, message)."""
    name = entry.get("name", json.dumps(entry.get("match", {})))
    matches = find_matches(records, entry["match"])
    if len(matches) != 1:
        return (
            False,
            None,
            f"{name}: expected exactly 1 matching record, found "
            f"{len(matches)} (schema drift?)",
        )
    key = entry["key"]
    if key not in matches[0]:
        return False, None, f"{name}: record lacks key '{key}'"
    measured = matches[0][key]
    if not isinstance(measured, (int, float)):
        return False, measured, f"{name}: key '{key}' is not numeric"

    tolerance = entry.get("tolerance", default_tolerance)
    problems = []
    if "value" in entry:
        value = entry["value"]
        direction = entry.get("direction", "lower_is_better")
        if direction == "lower_is_better":
            limit = value * (1.0 + tolerance)
            if measured > limit:
                problems.append(
                    f"regressed: {measured:g} > {limit:g} "
                    f"(baseline {value:g} +{tolerance:.0%})"
                )
        elif direction == "higher_is_better":
            limit = value * (1.0 - tolerance)
            if measured < limit:
                problems.append(
                    f"regressed: {measured:g} < {limit:g} "
                    f"(baseline {value:g} -{tolerance:.0%})"
                )
        else:
            problems.append(f"unknown direction '{direction}'")
    if "min" in entry and measured < entry["min"]:
        problems.append(f"below absolute floor: {measured:g} < {entry['min']:g}")
    if "max" in entry and measured > entry["max"]:
        problems.append(f"above absolute cap: {measured:g} > {entry['max']:g}")

    if problems:
        return False, measured, f"{name}: " + "; ".join(problems)
    return True, measured, f"{name}: ok ({measured:g})"


def refresh_values(baseline, records):
    """Copies each tracked entry's measured value into its "value" field.

    All or nothing: returns one message per entry that does not match
    exactly one record carrying its key, and changes nothing when there is
    any, so a refresh from partial output cannot leave stale pins behind.
    """
    problems = []
    measured = []
    for entry in baseline["tracked"]:
        name = entry.get("name", json.dumps(entry.get("match", {})))
        matches = find_matches(records, entry["match"])
        if len(matches) != 1 or entry["key"] not in matches[0]:
            problems.append(
                f"{name}: expected exactly 1 matching record with key "
                f"'{entry['key']}', found {len(matches)} matching records"
            )
        else:
            measured.append((entry, matches[0][entry["key"]]))
    if problems:
        return problems
    for entry, value in measured:
        if "value" in entry:
            entry["value"] = value
    return []


def run_compare(baseline_path, jsonl_paths, update):
    with open(baseline_path, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    records = load_records(jsonl_paths)
    default_tolerance = baseline.get("default_tolerance", DEFAULT_TOLERANCE)

    if update:
        problems = refresh_values(baseline, records)
        if problems:
            for problem in problems:
                print("UNMATCHED " + problem, file=sys.stderr)
            print(f"\n{len(problems)} tracked entries have no single "
                  f"measured record; {baseline_path} was not updated. Pass "
                  "every --jsonl the baseline tracks.", file=sys.stderr)
            return 1
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        updated = sum("value" in e for e in baseline["tracked"])
        print(f"updated {updated} baseline values in {baseline_path}")
        return 0

    failures = []
    for entry in baseline["tracked"]:
        ok, _, message = check_entry(entry, records, default_tolerance)
        print(("PASS " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    if failures:
        print(f"\n{len(failures)} of {len(baseline['tracked'])} tracked keys "
              "failed the perf gate.", file=sys.stderr)
        print(
            "\nIf this change intentionally shifts the tracked numbers "
            "(new algorithm, different\nworkload size), refresh the "
            "baseline from a tiny-scale run and commit it:\n"
            "  cmake --build build -j --target bench_build "
            "bench_throughput\n"
            "  TSO_BENCH_SCALE=tiny ./build/bench/bench_build "
            "| grep '^BENCH ' | sed 's/^BENCH //' > bench_build.jsonl\n"
            "  TSO_BENCH_SCALE=tiny ./build/bench/bench_throughput "
            "| grep '^BENCH ' | sed 's/^BENCH //' > bench_throughput.jsonl\n"
            "  python3 tools/bench_compare.py "
            "--baseline bench/baselines/ci-tiny.json \\\n"
            "      --jsonl bench_build.jsonl --jsonl bench_throughput.jsonl "
            "--update",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(baseline['tracked'])} tracked keys within tolerance")
    return 0


def self_test():
    """Verifies the gate actually fails on a synthetically regressed JSON."""
    baseline = {
        "default_tolerance": 0.25,
        "tracked": [
            {
                "name": "settles lower-is-better",
                "match": {"bench": "build", "phase": "kernel", "threads": 1},
                "key": "settles",
                "value": 1000,
                "direction": "lower_is_better",
            },
            {
                "name": "qps floor",
                "match": {"bench": "throughput", "threads": 1},
                "key": "qps",
                "value": 50000,
                "direction": "higher_is_better",
                "tolerance": 0.5,
            },
        ],
    }
    good = [
        {"bench": "build", "phase": "kernel", "threads": 1, "settles": 1100},
        {"bench": "throughput", "threads": 1, "qps": 60000},
    ]
    regressed_settles = [dict(good[0], settles=2000), good[1]]
    regressed_qps = [good[0], dict(good[1], qps=10000)]
    missing_record = [good[1]]
    duplicated = [good[0], good[0], good[1]]

    def outcome(records):
        return [
            check_entry(e, records, baseline["default_tolerance"])[0]
            for e in baseline["tracked"]
        ]

    def refresh(records):
        trial = copy.deepcopy(baseline)
        problems = refresh_values(trial, records)
        return len(problems), [e["value"] for e in trial["tracked"]]

    cases = [
        (outcome(good), [True, True], "clean run must pass"),
        (outcome(regressed_settles), [False, True],
         "2x settles must fail the gate"),
        (outcome(regressed_qps), [True, False],
         "5x qps drop must fail the gate"),
        (outcome(missing_record), [False, True],
         "missing record must fail the gate"),
        (outcome(duplicated), [False, True],
         "duplicated record must fail the gate"),
        (refresh(missing_record), (1, [1000, 50000]),
         "--update from partial records must be refused, changing nothing"),
        (refresh(good), (0, [1100, 60000]),
         "--update from complete records must refresh every value"),
    ]
    for got, want, what in cases:
        if got != want:
            print(f"self-test FAILED: {what} (got {got}, want {want})",
                  file=sys.stderr)
            return 1
    print(f"self-test passed: {len(cases)} scenarios behaved as expected")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--baseline", help="baseline JSON file")
    parser.add_argument(
        "--jsonl", action="append", default=[],
        help="measured BENCH JSON lines (repeatable)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite baseline values from the measured records",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the gate fails on synthetically regressed input",
    )
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.jsonl:
        parser.error("--baseline and at least one --jsonl are required")
    sys.exit(run_compare(args.baseline, args.jsonl, args.update))


if __name__ == "__main__":
    main()
