"""Run the benchmark once per seed and print each end-to-end metric's median and spread.

    python3 bench/spread.py --workload sessions --seeds 1-10

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median, the figure each metric's bound in BENCHMARK.json is set
against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])

    values, correct = {}, True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(f"{k}: median {median:.4g}  quartiles {q1:.4g} .. {q3:.4g}  "
              f"spread {(q3 - q1) / median:.3f}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
