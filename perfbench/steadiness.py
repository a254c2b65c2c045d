#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds, one fresh run.py
call per seed, and reports per end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median against the metric's bound.

    python3 perfbench/steadiness.py --workloads bulk,fleet --seeds 1-10
    python3 perfbench/steadiness.py --compare A.json B.json

Raw results go to .bench_build/steadiness/<label>.json; --compare reads two
such files and checks that the second set's medians are not worse than the
first's by more than each bound.  Prints Markdown tables.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "steadiness")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(workloads, seeds, seconds):
    runs = {w: [] for w in workloads}
    for w in workloads:
        for s in seeds:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                   "--seed", str(s), "--seconds", str(seconds), "--trace", "0"],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("run failed: %s seed %d (exit %d)" % (w, s, proc.returncode), file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w].append({"seed": s, "correct": result["correct"], "metrics": values})
            print("%s seed %d: %s" % (w, s, " ".join("%s=%.5g" % kv for kv in values.items())),
                  file=sys.stderr, flush=True)
    return runs


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def table(runs, bounds):
    print("| workload | metric | n | median | q1 | q3 | spread | bound | spread < bound/3 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, rs in runs.items():
        if len(rs) < 2:
            continue
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in rs]
            med, q1, q3, spread = summarize(vals)
            print("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f | %.2f | %s |" % (
                w, name, len(vals), med, q1, q3, spread, bound,
                "yes" if spread < bound / 3 else ("setup (exempt)" if name == "setup_s" else "NO")))


def compare(a, b, spec_):
    better = {m["name"]: m["better"] for m in spec_["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec_["end_to_end"]}
    print("| workload | metric | median A | median B | B worse by | bound | ok |")
    print("|---|---|---|---|---|---|---|")
    for w in a:
        if w not in b or not a[w] or not b[w]:
            continue
        for name, bound in bounds.items():
            ma = statistics.median(r["metrics"][name] for r in a[w])
            mb = statistics.median(r["metrics"][name] for r in b[w])
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            print("| %s | %s | %.6g | %.6g | %+.3f | %.2f | %s |" % (
                w, name, ma, mb, worse, bound, "yes" if worse <= bound else "NO"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="bulk,duplex_lossy,fleet,des")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--label", default="latest")
    ap.add_argument("--compare", nargs=2, metavar="JSON")
    args = ap.parse_args()
    spec_ = spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(sets[0], sets[1], spec_)
        return 0
    seconds = args.seconds or spec_["run_seconds"]
    runs = collect(args.workloads.split(","), parse_seeds(args.seeds), seconds)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, args.label + ".json"), "w") as f:
        json.dump(runs, f, indent=1)
    table(runs, {m["name"]: m["bound"] for m in spec_["end_to_end"]})
    bad = [r for rs in runs.values() for r in rs if not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
