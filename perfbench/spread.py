#!/usr/bin/env python3
"""Spread report: run one workload N times with different seeds and show how
much each end-to-end metric moves between runs.

    python3 perfbench/spread.py --workload analyze --runs 10 --seconds 15

For each metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and (q3 - q1) / median. It flags any metric whose
run-to-run spread exceeds a tenth, any metric whose spread exceeds a third of
its bound in BENCHMARK.json, and any percentile above the median with fewer
than ten samples beyond it in some run.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (seed %d, exit %d):\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    cond = {}
    for line in lines:
        if line.startswith("conditions "):
            cond = json.loads(line[len("conditions "):])
    return result, cond


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, units, few = {}, {}, []
    for i in range(args.runs):
        seed = args.seed0 + i
        result, cond = run_once(args.workload, seed, seconds)
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d of %d" % (seed, result["correct"], result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for name, beyond in cond.get("beyond", {}).items():
            p = re.search(r"_p(\d+)_", name)
            if p and int(p.group(1)) > 50 and beyond < 10:
                few.append("%s (seed %d: %d beyond, %d samples)" % (name, seed, beyond, cond["samples"][name]))
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))),
              flush=True)

    print("\n%-28s %6s %12s %12s %12s %8s %8s  %s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound", "flags"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flags = []
        if spread > 0.1:
            flags.append("spread>0.1")
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flags.append("spread>bound/3")
        print("%-28s %6s %12.6g %12.6g %12.6g %8.4f %8s  %s" % (
            name, units[name], med, q1, q3, spread, "-" if bound is None else bound, " ".join(flags)))
    for f in few:
        print("FEW SAMPLES:", f)


if __name__ == "__main__":
    main()
