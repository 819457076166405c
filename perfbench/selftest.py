"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in ``BENCHMARK.json``:

* the untraced run prints every end-to-end metric with its unit, and the
  traced run every per-layer metric with its unit, with ``correct: true``;
* a run with one planted wrong reference answer reports it, prints
  ``correct: false`` and exits non-zero — the correctness gate is not
  vacuous;

and that the benchmark copied without the engine sources exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY = ["--seconds", "2", "--scale", "0.05"]


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )


def result_of(out: subprocess.CompletedProcess) -> dict:
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys: {sorted(result)}")
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            raise AssertionError(f"{label}: metric {metric['name']} missing")
        if got["unit"] != metric["unit"]:
            raise AssertionError(
                f"{label}: {metric['name']} unit {got['unit']} != {metric['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {metric['name']} value {got['value']!r}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        raise AssertionError(f"{label}: undeclared metrics {sorted(extra)}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            out = run(["--workload", workload, "--seed", "1", "--trace", str(trace), *TINY])
            if out.returncode != 0:
                raise AssertionError(f"{label}: exit {out.returncode}\n{out.stderr}")
            result = result_of(out)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{label}: {result}")
            check_metrics(result, declared, label)
            print(f"ok  {label}: {len(declared)} metrics, {result['attempted']} queries")

        out = run(["--workload", workload, "--seed", "1", "--plant-wrong-answer", *TINY])
        result = result_of(out)
        if out.returncode == 0 or result["correct"] or result["failed"] < 1 \
                or "WRONG ANSWER" not in out.stderr:
            raise AssertionError(f"{workload}: planted wrong answer not reported: {result}")
        print(f"ok  {workload}: planted wrong answer reported ({result['failed']} failed)")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", *TINY],
                  cwd=bare)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            raise AssertionError(f"bare copy: exit {out.returncode}, stdout {out.stdout!r}")
        print(f"ok  without engine sources: exit {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
