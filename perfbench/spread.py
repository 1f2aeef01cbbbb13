"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --workload random-pairs --seeds 10
        [--out set1.json] [--against set0.json]

It runs seeds 1 to ``--seeds``.  For each end-to-end metric it prints the
median of the runs and the distance between their first and third
quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  ``--out`` stores every run's result
and counter lines under the workload's name in a JSON file (other
workloads in the file are kept).  With ``--against`` an earlier such file,
it also reports how far each metric's median moved, and whether the
counter lines of each seed repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = {}
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["counter_lines"] = [l for l in lines if l.startswith("counters ")]
        runs[str(seed)] = result
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored["environment"] = {"python": platform.python_version(),
                                 "machine": platform.machine(),
                                 "cpus": os.cpu_count()}
        stored.setdefault("workloads", {})[args.workload] = runs
        out.write_text(json.dumps(stored, indent=1) + "\n")

    earlier = (json.loads(Path(args.against).read_text())["workloads"]
               [args.workload] if args.against else None)
    names = list(next(iter(runs.values()))["metrics"])
    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          + (f" {'moved':>8s}" if earlier else ""))
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs.values()]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        line = (f"{name:40s} {med:12.6g} {spread:8.3f} "
                f"{bound if bound is not None else '-':>6}")
        if earlier:
            before = statistics.median(
                r["metrics"][name]["value"] for r in earlier.values())
            line += f" {(med - before) / before:+8.3f}" if before else ""
        print(line)
    if earlier:
        same = [seed for seed in runs if seed in earlier
                and runs[seed]["counter_lines"] == earlier[seed]["counter_lines"]]
        shared = [seed for seed in runs if seed in earlier]
        print(f"counters identical for {len(same)} of {len(shared)} shared seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
