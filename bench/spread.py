"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload lot --runs 10

Runs ``bench/run.py`` untraced once per seed 1..runs, one after another,
for ``run_seconds`` from ``BENCHMARK.json``, and prints for
each metric the median over the runs and the distance between the first
and third quartile as a share of that median, next to the bound fixed in
``BENCHMARK.json``.  A benchmark is steady when every spread but that of
``setup_s`` is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: not correct: {proc.stdout}", file=sys.stderr)
            return 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) > 1 else 0.0
        bound = bounds[name]
        mark = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:34s} {stats.median(vals):12.6g} {spread:8.4f} {bound:>6}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
