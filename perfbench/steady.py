#!/usr/bin/env python3
"""Steadiness evidence: runs each workload repeatedly with distinct seeds
and prints the spread of every end-to-end metric (tracing off).

The spread is the interquartile range as a share of the median, the way
`statistics.quantiles(values, n=4)` gives the quartiles. Each run also
prints the geometric-mean pass of its host probe (the reference kernel its host
times are scaled by) and a fixed-work calibration loop, summarised here
so a drifting host shows.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --runs 5 --workloads flat-server --seed0 100
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probes = [float(m.group(1)) for m in
              (re.search(r"calibration_ms=([0-9.]+)", l) for l in lines) if m]
    host = [float(m.group(1)) for m in
            (re.search(r"host probe mean ([0-9.]+) ms", l) for l in lines) if m]
    return result, probes, host


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = {}
    for workload in args.workloads.split(","):
        values, probes, hosts, bad = {}, [], [], 0
        for i in range(args.runs):
            seed = args.seed0 + i
            result, probe, host = run_once(bench["command"], workload, seed, args.seconds)
            probes.extend(probe)
            hosts.extend(host)
            bad += 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + "".join(f"  [calibration {c:.1f} ms]" for c in probe[:1])
                + "".join(f"  [host probe {h:.2f} ms]" for h in host),
                flush=True)
        print(f"{workload}: {args.runs} runs, {bad} incorrect; calibration_ms "
              f"median {statistics.median(probes):.2f} range {min(probes):.2f}-{max(probes):.2f}"
              + (f"; host probe mean: median {statistics.median(hosts):.2f} range "
                 f"{min(hosts):.2f}-{max(hosts):.2f} ms" if hosts else ""))
        for name, vs in values.items():
            med, q1, q3, rel = spread(vs)
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = f"  bound {bound}  {'ok' if rel <= bound / 3 else 'WIDE'}"
                worst[(workload, name)] = rel / bound
            print(f"  {name:<24} median {med:<16.8g} q1 {q1:<16.8g} q3 {q3:<16.8g} "
                  f"iqr/median {rel:.4f}{verdict}")
    if worst:
        (w, n), r = max(worst.items(), key=lambda kv: kv[1])
        print(f"widest spread relative to its bound: {w} {n} at {r:.2f} x bound")


if __name__ == "__main__":
    main()
