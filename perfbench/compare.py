#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records the benchmark writes (run.py puts
them in .bench_build/perfbench/results; copy them aside between the two
commits). Untraced records are compared per workload and end-to-end
metric: each side's median and quartiles, the pairs the change won (runs
paired by seed), and a verdict against the bounds in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than the bound
  improved    the change won at least 9 in 10 pairs and the medians differ by more
              than the parent's own quartile spread
  unresolved  the parent's spread is wider than the bound, so "no worse" cannot be told
              apart from noise (unless every change run beats every parent run)
  unchanged   otherwise

It also prints each side's share of failed operations per workload.
"""

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load(path):
    runs = []
    for f in sorted(pathlib.Path(path).glob("*.json")):
        try:
            rec = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and "end_to_end" in rec and not rec.get("trace"):
            runs.append(rec)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, parent, change, pairs):
    bound, lower = metric["bound"], metric["better"] == "lower"
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)

    def better(a, b):
        return a < b if lower else a > b

    worse_by = (cmed - pmed) if lower else (pmed - cmed)
    if worse_by > bound * abs(pmed):
        return "worse"
    won = sum(1 for p, c in pairs if better(c, p))
    all_better = all(better(c, p) for c in change for p in parent)
    if pairs and won >= 0.9 * len(pairs) and abs(cmed - pmed) > (pq3 - pq1):
        return "improved"
    if pmed and (pq3 - pq1) / abs(pmed) > bound and not all_better:
        return "unresolved"
    return "improved" if all_better else "unchanged"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load(argv[1]), load(argv[2])
    if not parent or not change:
        sys.stderr.write("compare.py: no untraced run records in one of the directories\n")
        return 1
    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs = sorted((r for r in parent if r["workload"] == wl), key=lambda r: (r["seed"], r.get("time", "")))
        c_runs = sorted((r for r in change if r["workload"] == wl), key=lambda r: (r["seed"], r.get("time", "")))
        if not p_runs or not c_runs:
            continue
        print(f"== {wl}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            print(f"   {side} failed {fail}/{att} = {fail / att if att else 0:.6f}")
        print(f"   {'metric':<20} {'parent q1/med/q3':>34} {'change q1/med/q3':>34} {'won':>7}  verdict")
        by_seed = {r["seed"]: r for r in c_runs}
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["end_to_end"][name]["value"] for r in p_runs if name in r["end_to_end"]]
            cv = [r["end_to_end"][name]["value"] for r in c_runs if name in r["end_to_end"]]
            if not pv or not cv:
                continue
            pairs = [(r["end_to_end"][name]["value"], by_seed[r["seed"]]["end_to_end"][name]["value"])
                     for r in p_runs if r["seed"] in by_seed and name in r["end_to_end"]]
            lower = m["better"] == "lower"
            won = sum(1 for p, c in pairs if (c < p if lower else c > p))
            fmt = lambda q: "%10.4g %10.4g %10.4g" % q
            print(f"   {name:<20} {fmt(quartiles(pv)):>34} {fmt(quartiles(cv)):>34} {won:>3}/{len(pairs):<3}  "
                  f"{verdict(m, pv, cv, pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
