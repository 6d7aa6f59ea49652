"""Run-to-run spread of the end-to-end metrics, for tuning the benchmark.

    python3 perfbench/spread.py --workload train --seeds 1,2,3,4,5

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between its first and third
quartile as a share of the median, next to a third of the metric's bound
from BENCHMARK.json.  Exits 1 when a run fails or is incorrect.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", f"{seconds:g}", "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {elapsed:.1f} s, correct {result['correct']} attempted {result['attempted']} "
              + " ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if not result["correct"]:
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        mid = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:<14} median {mid:.6g} {metric['unit']:<4} spread {spread:.4f} "
              f"(a third of bound {metric['bound'] / 3:.4f}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
