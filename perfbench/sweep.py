#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's median and spread.

Usage, from the root of a source checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median over seeds and the quartile spread, (Q3 - Q1) / median from
``statistics.quantiles(values, n=4)``, next to the metric's bound.  ``--out``
writes the runs and the summary as a ``BENCH_*.json`` baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import quartile_spread
from run import ROOT, WORKLOAD_NAMES, environment, load_spec

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` as a list of seeds."""
    if "-" in text.lstrip("-"):
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        spread = quartile_spread(values) if len(values) >= 2 and median else float("nan")
        summary[name] = {"median": median, "spread": spread, "bound": bounds.get(name),
                         "unit": runs[0]["metrics"][name]["unit"], "values": values}
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds and summarize spreads.")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: the workloads BENCHMARK.json declares")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))

    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
           "environment": environment(), "workloads": {}}
    worst = 0.0
    for workload in args.workload or workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{result['wall_s']:.1f} s wall", file=sys.stderr, flush=True)
        summary = summarize(runs, bounds)
        doc["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs), "wall_s": [r["wall_s"] for r in runs],
            "metrics": summary,
        }
        print(f"\n{workload}  ({len(runs)} seeds, all correct: {doc['workloads'][workload]['correct']})")
        print(f"  {'metric':<40} {'median':>12} {'unit':<6} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, row in summary.items():
            ratio = row["spread"] / row["bound"] if row["bound"] else float("nan")
            if row["bound"] and name != "setup_s":
                worst = max(worst, ratio)
            print(f"  {name:<40} {row['median']:>12.6g} {row['unit']:<6} {row['spread']:>8.4f} "
                  f"{row['bound'] if row['bound'] is not None else '-':>6} {ratio:>12.3f}")
    if args.trace == 0:
        print(f"\nlargest spread/bound, setup_s aside: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
