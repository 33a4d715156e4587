#!/usr/bin/env python3
"""Runs the untraced benchmark (--trace 0) once per seed on each workload and
reports, for every end-to-end metric, the quartile spread that judges its
steadiness: the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median.

Run from the repository root, e.g.:

    python3 perfbench/spread.py --seeds 10 --first-seed 1 paper serve

Each run's JSON line is appended to .bench_build/perfbench/spread.jsonl, so
two sets can be compared afterwards with --compare FIRST_SEED_A FIRST_SEED_B.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

LOG = os.path.join(".bench_build", "perfbench", "spread.jsonl")


def bench_config():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_one(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def compare(cfg, first_a, first_b, seeds):
    """Prints a markdown table of two logged sets: each end-to-end metric's
    median and spread per set, and the second median relative to the first."""
    runs = {}
    with open(LOG) as f:
        for line in f:
            r = json.loads(line)
            runs[(r["workload"], r["seed"])] = r["result"]["metrics"]
    print("| workload | metric | median A | spread A | median B | spread B | B/A-1 | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in [w["name"] for w in cfg["workloads"]]:
        for m in cfg["end_to_end"]:
            sets = []
            for first in (first_a, first_b):
                vals = [runs[(w, s)][m["name"]]["value"] for s in range(first, first + seeds) if (w, s) in runs]
                if len(vals) < 2:
                    break
                sets.append(spread(vals))
            if len(sets) < 2:
                continue
            (sa, ma), (sb, mb) = sets
            print(f"| {w} | {m['name']} | {ma:.4g} | {sa:.3f} | {mb:.4g} | {sb:.3f} | {mb / ma - 1:+.3f} | {m['bound']} |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", type=int, nargs=2, metavar=("FIRST_SEED_A", "FIRST_SEED_B"))
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    cfg = bench_config()
    if args.compare:
        compare(cfg, args.compare[0], args.compare[1], args.seeds)
        return
    bounds = {m["name"]: m.get("bound") for m in cfg["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in cfg["workloads"]]
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    for w in workloads:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_one(cfg, w, seed)
            with open(LOG, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": r}) + "\n")
            if not r["correct"] or r["failed"]:
                sys.exit(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}")
            rows.append(r["metrics"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())), flush=True)
        print(f"{w}: spread over seeds {args.first_seed}..{args.first_seed + args.seeds - 1}")
        for name in sorted(rows[0]):
            s, med = spread([m[name]["value"] for m in rows])
            b = bounds.get(name)
            flag = "" if b is None else f" bound {b:.2f} ({'ok' if s < b / 3 else 'WIDE'})"
            print(f"  {name:16s} median {med:10.4g}  spread {s:6.3f}{flag}")


if __name__ == "__main__":
    main()
