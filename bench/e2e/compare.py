#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results, parent against change.

  python3 bench/e2e/compare.py --parent P1.json P2.json ... \\
                               --change C1.json C2.json ...

Each file is one run.py --out result (one invocation); pass the same number
of files per side, made alternately (parent, change, parent, ...), so file i
of each side forms pair i. For every workload x end-to-end metric it prints
both sides' medians and quartiles over the per-run medians, the pairs the
change won, and a verdict:

  better      the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own quartile distance is wider than the bound,
              and not every change run beats every parent run;
  same        otherwise.

Results made with --set (tagged overridden) or --smoke are refused: they
measure a different program or size.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        if run.get("overridden") or run.get("smoke"):
            sys.exit("compare.py: %s is an overridden or smoke result; "
                     "refusing to compare it" % path)
        runs.append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """parent/change: per-run medians, pair i = (parent[i], change[i])."""
    sign = 1 if better == "higher" else -1
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better", wins, len(pairs)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    if len(parent) != len(change):
        sys.exit("compare.py: %d parent runs but %d change runs; pairs need "
                 "equal counts" % (len(parent), len(change)))

    workloads = [w for w in parent[0]["workloads"]
                 if all(w in r["workloads"] for r in parent + change)]
    print("%-22s %-19s %-6s %12s %12s %12s %12s %12s %12s %6s %s"
          % ("workload", "metric", "unit", "parent_med", "parent_q1",
             "parent_q3", "change_med", "change_q1", "change_q3", "wins",
             "verdict"))
    for w in workloads:
        for m in metrics:
            name = m["name"]
            p = [r["workloads"][w]["end_to_end"][name]["median"]
                 for r in parent]
            c = [r["workloads"][w]["end_to_end"][name]["median"]
                 for r in change]
            v, wins, n = verdict(p, c, m["better"], m["bound"])
            print("%-22s %-19s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g "
                  "%12.6g %6s %s"
                  % (w, name, m["unit"], statistics.median(p), *quartiles(p),
                     statistics.median(c), *quartiles(c),
                     "%d/%d" % (wins, n), v))


if __name__ == "__main__":
    main()
