"""Run the benchmark over several seeds and print each metric's median and
spread (interquartile range as a share of the median).

    python3 perfbench/repeat.py --workload raw_refresh --seeds 1-10 --seconds 40

``--json PATH`` also writes every run's metrics.  Use it to check that a
workload is steady before trusting a comparison: each end-to-end spread
should stay well inside the metric's ``bound`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        probe = json.loads(lines[-2][len("info "):])["stamp"]["cpu_probe_ms"]
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items())
              + " cpu_probe_ms=" + "/".join(f"{p:.1f}" for p in probe), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    print(f"{'metric':40s} {'median':>12s} {'spread':>8s}")
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} {median:12.4f} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
