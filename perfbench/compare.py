#!/usr/bin/env python3
"""Compare saved benchmark results of two versions of gcdseq.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a result saved by ``run.py --out`` for one workload. For every
metric the script prints each side's median and quartiles and the change of
the medians; an end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked. It refuses to compare results whose backends,
workloads or trace modes differ: a hand-built compiled kernel against the
pure-Python fallback would otherwise read as a gain in the code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load(paths):
    results = []
    for path in paths:
        with open(path, encoding="ascii") as fh:
            results.append(json.load(fh))
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)

    keys = {(r["stamp"]["backend"], r["workload"], tuple(sorted(r["result"]["metrics"])))
            for r in base + new}
    if len(keys) != 1:
        kinds = sorted({(backend, workload) for backend, workload, _ in keys})
        print(f"compare: refusing to compare different backends, workloads or trace "
              f"modes: {kinds}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="ascii") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    backend, workload, names = keys.pop()
    print(f"{workload} on {backend}: {len(base)} base run(s), {len(new)} new run(s)")
    print(f"{'metric':<38}{'base median [q1, q3]':>34}{'new median [q1, q3]':>34}{'change':>9}")
    for name in names:
        unit = base[0]["result"]["metrics"][name]["unit"]
        cols, medians = [], []
        for side in (base, new):
            values = [r["result"]["metrics"][name]["value"] for r in side]
            lo, hi = quartiles(values)
            medians.append(statistics.median(values))
            cols.append(f"{medians[-1]:.5g} [{lo:.5g}, {hi:.5g}] {unit}")
        change = medians[1] / medians[0] - 1 if medians[0] else float("nan")
        flag = ""
        if name in bounds:
            worse = -change if bounds[name]["better"] == "higher" else change
            flag = "  WORSE THAN BOUND" if worse > bounds[name]["bound"] else ""
        print(f"{name:<38}{cols[0]:>34}{cols[1]:>34}{change:>+9.1%}{flag}")
    for label, side in (("base", base), ("new", new)):
        failed = sum(r["result"]["failed"] for r in side)
        attempted = sum(r["result"]["attempted"] for r in side)
        print(f"{label}: {failed} of {attempted} invocations failed the correctness check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
