#!/usr/bin/env python3
"""Run one workload N times with different seeds and print, per metric,
the median, the quartiles and the interquartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.

Usage (from the repository root):
    python3 idsbench/steady.py --workload c8-cdx [--runs 10] [--seed0 1]
                               [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds from BENCHMARK.json. Quartiles are
statistics.quantiles(values, n=4); "ok" means the spread is below a third
of the bound (setup_s is only compared by its median, so it is not marked).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    failed_shares = set()
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = ["python3", os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        res = json.loads(lines[-1])
        failed_shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
        if not res["correct"]:
            print(f"seed {seed}: correct=false\n{done.stderr[-2000:]}")
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {args.seconds} s each, "
          f"trace {args.trace}, failed shares {sorted(map(str, failed_shares))}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
