#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload nc-fuzz --seeds 1 2 3 4 5 --seconds 25

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    print(f"{args.workload}, {len(runs)} runs of {args.seconds} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"  {name:28s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
