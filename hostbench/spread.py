#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, per metric, the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median next to the metric's
bound. A spread above a third of the bound is flagged. With --compare,
checks instead that the medians of a second set of result lines are no
worse than those of a first set by more than each metric's bound.

    python3 hostbench/spread.py --workload farm-batch --seeds 1-10 --out a.jsonl
    python3 hostbench/spread.py --compare a.jsonl b.jsonl

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def bounds(bench):
    return {m["name"]: m for m in bench["end_to_end"]}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def column(rows, name):
    return [r["metrics"][name]["value"] for r in rows]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bounds(bench)
    if args.compare:
        first, second = (load(p) for p in args.compare)
        bad = 0
        for name, m in metrics.items():
            a, b = statistics.median(column(first, name)), statistics.median(column(second, name))
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "WORSE" if worse > m["bound"] else "ok"
            bad += flag != "ok"
            print(f"{name:26} {a:14.6g} {b:14.6g} {worse:+8.4f} bound {m['bound']:.2f} {flag}")
        return 1 if bad else 0
    rows = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = (out.stdout.strip().splitlines() or [""])[-1]
        if out.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        rows.append(json.loads(last))
        print(f"seed {seed}: ok", flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(last + "\n")
    flagged = 0
    for name, m in metrics.items():
        vals = column(rows, name)
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        flag = "ok" if share <= m["bound"] / 3 or name == "setup_s" else "WIDE"
        flagged += flag != "ok"
        print(f"{name:26} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
              f"spread {share:7.4f} bound {m['bound']:.2f} {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
