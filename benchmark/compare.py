#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 benchmark/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each file is what `benchmark/run.py --out FILE` wrote for one run. Run i of
the parent is paired with run i of the change, so make the pairs with the
same --seed and --seconds and alternate which side runs first. Bounds and
directions come from BENCHMARK.json.

One row per (end-to-end metric, workload), with each side's median and
quartiles over its runs and a verdict:

  win         at least 10 pairs, the change is better in at least 9 of 10
              of them (ties count for neither side), and the medians differ
              by more than the parent's own spread (its quartile distance);
  better      every change run beats every parent run, without the pairs or
              gap a win needs;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (as a share of the parent's median), and
              either the parent's spread is within the bound or every
              change run is worse than every parent run;
  unresolved  the parent's runs spread wider than the bound, so "no worse"
              cannot be shown;
  unchanged   none of the above.

Exits 1 if any row regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths):
    """[{workload: {metric: median}}] per file."""
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.append({r["workload"]: {m: s["median"] for m, s in r["end_to_end"].items()}
                     for r in doc["runs"]})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Returns (verdict, wins, pairs) for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(1 for g in gains if g > 0)
    pairs = len(gains)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    gap = sign * (pm - cm)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    all_worse = all(sign * (p - c) < 0 for p in parent for c in change)
    worse = -gap > bound * abs(pm)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gap > spread:
        return "win", wins, pairs
    if all_better:
        return "better", wins, pairs
    if worse and (all_worse or spread <= bound * abs(pm)):
        return "regressed", wins, pairs
    if spread > bound * abs(pm):
        return "unresolved", wins, pairs
    return "unchanged", wins, pairs


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", nargs="+", required=True, help="run.py --out files")
    p.add_argument("--change", nargs="+", required=True, help="run.py --out files")
    args = p.parse_args(argv)
    if len(args.parent) != len(args.change):
        p.error("--parent and --change need the same number of runs (they are paired)")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"]
                 if all(w["name"] in r for r in parent_runs + change_runs)]
    if not workloads:
        p.error("no workload is present in every run")
    if len(parent_runs) < MIN_PAIRS:
        print(f"note: {len(parent_runs)} pairs; a win needs at least {MIN_PAIRS}")

    print(f"{'workload':18s} {'metric':24s} {'unit':6s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}  verdict")
    regressed = False
    for m in spec["end_to_end"]:
        for w in workloads:
            parent = [r[w][m["name"]] for r in parent_runs]
            change = [r[w][m["name"]] for r in change_runs]
            v, wins, pairs = verdict(parent, change, m["better"], m["bound"])
            regressed |= v == "regressed"
            pm, cm = statistics.median(parent), statistics.median(change)
            pq, cq = quartiles(parent), quartiles(change)
            delta = (cm - pm) / pm if pm else 0.0
            print(f"{w:18s} {m['name']:24s} {m['unit']:6s} "
                  f"{pm:12.6g} [{pq[0]:9.6g}, {pq[1]:9.6g}] "
                  f"{cm:12.6g} [{cq[0]:9.6g}, {cq[1]:9.6g}] {delta:+8.2%} "
                  f"{wins:>2d}/{pairs:<3d}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
