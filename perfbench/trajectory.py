"""Measure this tree and append a point to ``perfbench/trajectory.jsonl``.

    python3 perfbench/trajectory.py --label "<what changed>" [--seeds 101-110]

Runs ``run.py`` once per seed on every workload of ``BENCHMARK.json``
untraced, then once traced per workload, and records per metric the
values, their median and quartiles over the seeds
(``statistics.quantiles(values, n=4)``) and the spread (interquartile
distance over median), and from the traced run the per-layer metrics.
Seeds are given as ``first-last`` or a comma list.  Takes about a
minute per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/trajectory.py")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="101-110")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seeds = parse_seeds(args.seeds)
    point = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d"),
        "machine": f"{os.cpu_count()} cpu, {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        results = [run(name, seed, bench["run_seconds"], 0) for seed in seeds]
        if not all(r["correct"] and not r["failed"] for r in results):
            print(f"{name}: a run was not correct", file=sys.stderr)
            return 1
        point["end_to_end"][name] = {
            metric: summary([r["metrics"][metric]["value"] for r in results])
            for metric in results[0]["metrics"]
        }
        traced = run(name, seeds[0], bench["run_seconds"], 1)
        if not traced["correct"]:
            print(f"{name}: the traced run was not correct", file=sys.stderr)
            return 1
        point["per_layer"][name] = {
            metric: entry["value"]
            for metric, entry in traced["metrics"].items()
        }
        print(json.dumps({name: point["end_to_end"][name]}), flush=True)
    with open(TRAJECTORY, "a", encoding="utf-8") as f:
        f.write(json.dumps(point) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
