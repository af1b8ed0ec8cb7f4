"""Steadiness check: run one workload N times and summarize each metric.

    python3 perfbench/steady.py --workload plan-cold --runs 10 --seconds 25

Runs ``perfbench/run.py`` once per seed (``--first-seed`` onwards, one
seed per run), then prints a
markdown table with each metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
as a share of the median, and the max/min spread. Exits 1 if any run
failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=os.path.dirname(HERE))
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def table(results: list) -> str:
    names = list(results[0]["metrics"])
    rows = [
        "| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median | (max-min)/median |",
        "|---|---|---|---|---|---|---|",
    ]
    for name in names:
        s = spread([r["metrics"][name]["value"] for r in results])
        unit = results[0]["metrics"][name]["unit"]
        rows.append(
            f"| {name} | {unit} | {s['median']:.6g} | {s['q1']:.6g} | "
            f"{s['q3']:.6g} | {s['iqr_share']:.2%} | {s['range_share']:.2%} |"
        )
    return "\n".join(rows)


def per_run(results: list, seeds: list) -> str:
    names = list(results[0]["metrics"])
    rows = ["| seed | " + " | ".join(names) + " |",
            "|---" * (len(names) + 1) + "|"]
    for seed, r in zip(seeds, results):
        rows.append(f"| {seed} | " + " | ".join(
            f"{r['metrics'][n]['value']:.6g}" for n in names) + " |")
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be >= 2 for quartiles")

    results, walls, bad = [], [], 0
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        result, wall = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        walls.append(wall)
        bad += not result["correct"]
        print(f"seed {seed}: {wall:.1f}s wall, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}",
              file=sys.stderr, flush=True)
    print(f"### {args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, --seconds {args.seconds:g}, "
          f"--trace {args.trace}\n")
    print(table(results))
    print("\nPer run:\n")
    print(per_run(results, seeds))
    print(f"\nrun wall time: median {sorted(walls)[len(walls) // 2]:.1f}s, "
          f"max {max(walls):.1f}s; runs not correct: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
