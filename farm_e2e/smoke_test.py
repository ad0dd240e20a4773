#!/usr/bin/env python3
"""Smoke test of the end-to-end farm benchmark.

Runs every workload at a tiny size, once measured (--trace 0) and once
traced (--trace 1), and checks that each run prints every metric that
BENCHMARK.json names, with its unit and a finite value, and that the
correctness gate passes (op_fail_ratio 0). Also checks that BENCHMARK.json
is exactly what run.py --print-spec prints.

  python3 farm_e2e/smoke_test.py [--binary PATH]
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def check_result(where, result, expected):
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: correctness gate failed: "
                        f"{result['failures'][:3]}")
    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        problems.append(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        metric = got.get(name)
        if metric is None:
            continue
        if metric["unit"] != unit:
            problems.append(f"{where}: {name} has unit {metric['unit']}, "
                            f"expected {unit}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="prebuilt farm_bench (default: build)")
    args = parser.parse_args()

    spec = run.spec()
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        if json.load(f) != spec:
            problems.append("BENCHMARK.json differs from run.py --print-spec")
    try:
        binary = args.binary or run.build()
        for workload, _ in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                where = f"{workload} --trace {trace}"
                result = run.measure(binary, workload, seed=2001, seconds=0,
                                     trace=trace, smoke=True)
                expected = {m["name"]: m["unit"] for m in spec[section]}
                found = check_result(where, result, expected)
                problems += found
                print(f"{'FAIL' if found else 'ok  '} {where}: "
                      f"{len(result['metrics'])} metrics, "
                      f"attempted {result['attempted']}", flush=True)
    except run.BenchError as err:
        problems.append(str(err))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
