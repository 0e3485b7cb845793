#!/usr/bin/env python3
"""Steadiness check: run the benchmark over many seeds and report spreads.

Run from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 --heldout 1001 --traced

For each workload it runs the benchmark once per seed (tracing off) and
prints, for every end-to-end metric, the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json. --heldout
adds runs on seeds not used while tuning and prints their median beside
the main one. --traced adds one traced run per workload and prints the
tracing overhead: each end-to-end metric of the traced run against the
untraced median. The report is also written to .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr[-2000:]}")
    info, res = json.loads(lines[-2]), json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    return info, res, wall


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), (q3 - q1) / statistics.median(vals)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--heldout", default="")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": seconds, "workloads": {}}
    for w in names:
        main_vals, held_vals, walls = {}, {}, []
        for seed in parse_seeds(args.seeds):
            _, res, wall = run_once(w, seed, seconds, 0)
            walls.append(wall)
            for k, m in res["metrics"].items():
                main_vals.setdefault(k, []).append(m["value"])
        for seed in parse_seeds(args.heldout):
            _, res, wall = run_once(w, seed, seconds, 0)
            walls.append(wall)
            for k, m in res["metrics"].items():
                held_vals.setdefault(k, []).append(m["value"])
        traced = {}
        if args.traced:
            info, res, wall = run_once(w, parse_seeds(args.seeds)[0], seconds, 1)
            walls.append(wall)
            traced = {k: m["value"] for k, m in info["e2e"].items()}
            report.setdefault("per_layer", {})[w] = {k: m["value"] for k, m in res["metrics"].items()}
        rows = {}
        print(f"\n{w}: {len(walls)} runs, wall max {max(walls):.1f}s mean {statistics.mean(walls):.1f}s")
        print(f"  {'metric':22} {'median':>12} {'IQR/med':>8} {'bound':>6} {'held-out':>12} {'traced':>9}")
        for k in sorted(main_vals):
            med, sp = spread(main_vals[k])
            row = {"values": main_vals[k], "median": med, "iqr_share": sp, "bound": bounds.get(k)}
            held = statistics.median(held_vals[k]) if k in held_vals else None
            over = traced[k] / med - 1 if k in traced else None
            row.update({"heldout_median": held, "heldout_values": held_vals.get(k),
                        "traced_overhead": over})
            rows[k] = row
            flag = "" if sp < bounds.get(k, 1) / 3 else "  <-- above bound/3"
            held_s = f"{held:12.4f}" if held is not None else " " * 12
            over_s = f"{over:+8.1%}" if over is not None else ""
            print(f"  {k:22} {med:12.4f} {sp:8.2%} {bounds.get(k, 0):6.2f} {held_s} {over_s:>9}{flag}")
        report["workloads"][w] = rows
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/steady.json", "w") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
