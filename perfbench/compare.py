#!/usr/bin/env python3
"""Summarises or compares sets of benchmark results written by sweep.py.

    python3 perfbench/compare.py A.jsonl            # spread of one set
    python3 perfbench/compare.py A.jsonl B.jsonl    # B against baseline A

For each workload and metric it prints each set's median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median. With one
set, a metric is "steady" when its spread is below a third of the bound in
BENCHMARK.json, "noisy" when it is below the bound, and "too noisy"
otherwise; setup_s is exempt from the spread rule. With two sets, the
verdict for B is:

  worse          B's median is worse than A's by more than the bound;
  better         B's median is better by more than A's spread and B's
                 worse quartile beats A's better quartile;
  within bounds  neither;
  unresolved     a set's spread exceeds the bound, unless every B value is
                 better (better) or worse (worse) than every A value.

Exits 1 when a metric is "too noisy" (one set) or "worse" (two sets).
Per-layer metrics (from --trace 1 sweeps) have no bound: they are listed
with their medians and quartiles only.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {metric: [values]}}, plus the count of failed runs."""
    values = defaultdict(lambda: defaultdict(list))
    failed = 0
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        result = record["result"]
        if result is None or not result["correct"]:
            failed += 1
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values, failed


def summary(values):
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if q3 == q1:
        spread = 0.0
    else:
        spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(a, b, better, bound):
    ma, qa1, qa3, spread_a = summary(a)
    mb, qb1, qb3, spread_b = summary(b)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if max(spread_a, spread_b) > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better", change
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    b_worse_quartile = qb1 if better == "higher" else qb3
    a_better_quartile = qa3 if better == "higher" else qa1
    if change > spread_a and sign * (b_worse_quartile - a_better_quartile) > 0:
        return "better", change
    return "within bounds", change


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(path) for path in argv[1:]]
    for path, (_, failed) in zip(argv[1:], sets):
        if failed:
            print(f"{path}: {failed} run(s) failed or were incorrect")
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        present = [s[0].get(workload, {}) for s in sets]
        if not any(present):
            continue
        print(f"\n{workload}")
        for name, meta in metrics.items():
            columns = [p.get(name) for p in present]
            if not all(columns):
                continue
            bound = meta.get("bound")
            cells = []
            for values in columns:
                median, q1, q3, spread = summary(values)
                cells.append(f"n={len(values):<2} median={median:<12.6g} "
                             f"q1={q1:<12.6g} q3={q3:<12.6g} "
                             f"spread={spread:.3f}")
            line = f"  {name:<40} " + " | ".join(cells)
            if bound is None:
                print(line)
            elif len(columns) == 1:
                spread = summary(columns[0])[3]
                if name == "setup_s" or spread < bound / 3:
                    state = "steady"
                elif spread <= bound:
                    state = "noisy"
                else:
                    state = "too noisy"
                    status = 1
                print(f"{line}  bound={bound} {state}")
            else:
                result, change = verdict(columns[0], columns[1],
                                         meta["better"], bound)
                if result == "worse":
                    status = 1
                print(f"{line}  change={change:+.3f} bound={bound} {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
