#!/usr/bin/env python3
"""Steadiness check: run the benchmark as repeated sets and report spreads.

Usage (from the repository root):

    python3 perfbench/steady.py [--sets 2] [--seeds 10] [--workloads a,b]
                                [--seconds S] [--first-seed 1]

Each set runs every chosen workload once per seed (seeds first-seed ..
first-seed+seeds-1), untraced, through run.py. For every workload and
end-to-end metric it prints, per set, the median and the interquartile
range as a share of the median (statistics.quantiles(n=4)), then the
drift of the medians from set to set as a share of the first set's
median, next to the metric's bound from BENCHMARK.json. It also checks
that the sim_* metrics are bit-equal between sets, run by run, and that
the share of failed operations is the same in every set.

Exit status is 1 if a spread (setup_s excepted) exceeds a third of its
bound, a median drifts by more than its bound, a sim_* metric differs,
the failed shares differ, or a run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    # results[set][workload] = list of result objects, one per seed
    results = []
    for s in range(args.sets):
        per_set = {}
        for w in workloads:
            per_set[w] = []
            for seed in seeds:
                r = run_once(w, seed, args.seconds)
                per_set[w].append(r)
                print("set %d %-15s seed %-3d attempted %-4d failed %d %s" % (
                    s, w, seed, r["attempted"], r["failed"],
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in r["metrics"].items())),
                    flush=True)
        results.append(per_set)

    ok = True
    print()
    print("%-15s %-16s %6s  %s  %s" % (
        "workload", "metric", "bound",
        "  ".join("set%d median (iqr%%)" % s for s in range(args.sets)),
        "drift%"))
    for w in workloads:
        for name, m in metrics.items():
            meds, cells = [], []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                med = statistics.median(values)
                spread = iqr_share(values)
                meds.append(med)
                cells.append("%14.6g (%5.2f)" % (med, 100 * spread))
                if name != "setup_s" and spread > m["bound"] / 3:
                    ok = False
            drifts = []
            for med in meds[1:]:
                worse = (med - meds[0]) if m["better"] == "lower" \
                    else (meds[0] - med)
                drifts.append(100 * worse / meds[0] if meds[0] else 0.0)
                if meds[0] and worse / meds[0] > m["bound"]:
                    ok = False
            print("%-15s %-16s %6.2f  %s  %s" % (
                w, name, m["bound"], "  ".join(cells),
                " ".join("%+.2f" % d for d in drifts)))
        shares = set()
        for s in range(args.sets):
            att = sum(r["attempted"] for r in results[s][w])
            fail = sum(r["failed"] for r in results[s][w])
            shares.add(fail / att if att else -1)
            if not all(r["correct"] for r in results[s][w]):
                ok = False
                print("%s: incorrect run in set %d" % (w, s))
        if len(shares) != 1:
            ok = False
            print("%s: failed share differs between sets: %s" % (w, shares))
        for name in metrics:
            if not name.startswith("sim_"):
                continue
            for s in range(1, args.sets):
                a = [r["metrics"][name]["value"] for r in results[0][w]]
                b = [r["metrics"][name]["value"] for r in results[s][w]]
                if a != b:
                    ok = False
                    print("%s: %s differs between set 0 and set %d"
                          % (w, name, s))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
