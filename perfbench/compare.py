#!/usr/bin/env python3
"""Compares two sets of benchmark results (parent and change).

Collect the sets with perfbench/run.py --out, or let this script run the
pairs itself, alternating which side goes first:

    python3 perfbench/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload ingest-hot --seeds 1-10 --out /tmp/cmp
    python3 perfbench/compare.py diff /tmp/cmp/parent /tmp/cmp/change

For every workload and end-to-end metric `diff` prints each side's median
and quartiles, the fraction of seed-matched pairs the change wins, and a
verdict under the bounds in BENCHMARK.json:

  improved      the change wins >= 9/10 of at least 10 pairs and the medians
                differ by more than the parent's own quartile distance
  regressed     the change's median is worse than the parent's by more than
                the bound
  unresolved    a side's spread (quartile distance / median) exceeds the
                bound, unless every change run beats every parent run
  no regression otherwise
  refused       host-time metric from runs whose host stamps differ

Fingerprints (modelled outputs) are compared seed by seed; any difference
means the change is not bit-identical. `diff` exits with 1 when a metric
regressed or is unresolved, or a fingerprint differs.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_TIME_UNITS = {"s", "ms", "1/s", "MiB", "tx/s"}
HOST_STAMP_KEYS = ["nproc", "cpu_model", "compiler", "build_type", "cxx_flags",
                   "pool_threads", "shards", "store_backend"]


def load_set(directory, trace):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r["trace"] == trace:
            runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, parent, change, paired, stamps_match):
    """parent/change: value lists; paired: (parent, change) tuples."""
    if metric["unit"] in HOST_TIME_UNITS and not stamps_match:
        return "refused (host stamps differ)", None
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(c, p):
        return c < p if lower else c > p

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in paired if better(c, p))
    win_frac = wins / len(paired) if paired else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    all_worse = (min(change) > max(parent)) if lower else (max(change) < min(parent))
    spread = max((pq3 - pq1) / pmed if pmed else 0, (cq3 - cq1) / cmed if cmed else 0)
    worse = ((cmed - pmed) if lower else (pmed - cmed)) / pmed if pmed else 0
    gain = (better(cmed, pmed) and abs(cmed - pmed) > (pq3 - pq1)
            and len(paired) >= 10 and win_frac >= 0.9)
    if spread > bound and not all_better:
        return ("regressed" if all_worse and worse > bound else "unresolved"), win_frac
    if gain:
        return "improved", win_frac
    if worse > bound:
        return "regressed", win_frac
    return "no regression", win_frac


def diff(args):
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent = load_set(args.parent, 0)
    change = load_set(args.change, 0)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print("== %s: missing on one side" % workload)
            status = 1
            continue
        p_stamp = {k: next(iter(p_runs.values()))["stamp"].get(k) for k in HOST_STAMP_KEYS}
        c_stamp = {k: next(iter(c_runs.values()))["stamp"].get(k) for k in HOST_STAMP_KEYS}
        stamps_match = p_stamp == c_stamp
        seeds = sorted(set(p_runs) & set(c_runs))
        print("== %s  (%d parent runs, %d change runs, %d seed pairs)" %
              (workload, len(p_runs), len(c_runs), len(seeds)))
        if not stamps_match:
            print("   host stamps differ: %s vs %s" % (p_stamp, c_stamp))
        fp_diff = [s for s in seeds if p_runs[s]["fingerprint"] != c_runs[s]["fingerprint"]]
        print("   fingerprints: %s" % ("identical on every paired seed" if not fp_diff else
                                       "DIFFER on seeds %s" % fp_diff))
        if fp_diff:
            status = 1
        print("   %-24s %-30s %-30s %8s %6s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins",
               "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            paired = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                      for s in seeds]
            v, win_frac = verdict(metric, pv, cv, paired, stamps_match)
            if v in ("regressed", "unresolved"):
                status = 1
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            delta = (cmed - pmed) / pmed * 100 if pmed else 0
            print("   %-24s %-30s %-30s %+7.2f%% %6s  %s" % (
                name, "%.5g [%.5g, %.5g]" % (pmed, pq1, pq3),
                "%.5g [%.5g, %.5g]" % (cmed, cq1, cq3), delta,
                "-" if win_frac is None else "%.2f" % win_frac, v))
    return status


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_pairs(args):
    """Runs parent and change alternately on each seed, parent first on even
    pair indices and change first on odd ones."""
    sides = [("parent", os.path.abspath(args.parent)), ("change", os.path.abspath(args.change))]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            out = os.path.join(os.path.abspath(args.out), side)
            cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--trace", "0", "--out", out]
            print("%s seed %d: %s" % (side, seed, " ".join(cmd)), file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print("run failed on %s seed %d" % (side, seed), file=sys.stderr)
                return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("diff", help="compare two result directories")
    d.add_argument("parent")
    d.add_argument("change")
    d.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    r = sub.add_parser("run", help="run seed-matched pairs in two checkouts")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--out", required=True)
    args = ap.parse_args()
    return diff(args) if args.cmd == "diff" else run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
