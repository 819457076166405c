"""Morsel-driven parallel scaling benchmark: N workers vs one.

Times a scan-heavy aggregate over a 1M-row binary-column table on the
vectorized tier at one worker and at increasing worker counts, reporting the
speedup.  Like ``bench_vectorized_fallback.py`` this is
a standalone script (no pytest-benchmark session) so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick

Exit status:

* non-zero when any run disagrees on the result rows, when a run with
  workers did not fan out over morsels, or when the machine has at least as
  many usable cores as workers but the speedup missed the required minimum
  (2x by default, per the subsystem's acceptance bar; ``--quick`` relaxes it
  for noisy shared CI runners),
* zero (with a note) when the machine simply lacks the cores — a 1-core box
  cannot demonstrate parallel speedup, only parallel correctness.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_dataset(directory: str, rows: int) -> str:
    """Materialize a binary-column table shaped like a TPC-H lineitem slice."""
    import numpy as np

    from repro.core import types as t
    from repro.storage.binary_format import write_column_table

    rng = np.random.RandomState(7)
    schema = t.make_schema(
        {"id": "int", "qty": "int", "price": "float", "discount": "float"}
    )
    columns = {
        "id": np.arange(rows, dtype=np.int64),
        "qty": rng.randint(0, 100, size=rows).astype(np.int64),
        "price": np.round(rng.uniform(1.0, 1000.0, size=rows), 2),
        "discount": np.round(rng.uniform(0.0, 0.1, size=rows), 4),
    }
    path = f"{directory}/scaling_columns"
    write_column_table(path, columns, schema)
    return path


def make_engine(path: str, *, workers: int, batch_size: int):
    from repro import ProteusEngine

    engine = ProteusEngine(
        enable_caching=False,
        enable_codegen=False,
        parallel_workers=workers,
        vectorized_batch_size=batch_size,
    )
    engine.register_binary_columns("lineitem", path)
    return engine


def time_query(engine, query: str, repetitions: int):
    """Best-of-N hot timing (first run warms plug-in state)."""
    result = engine.query(query)
    best = min(
        engine.query(query).execution_seconds for _ in range(repetitions)
    )
    return best, result


def rows_match(left, right) -> bool:
    """Row equality with 1e-9 relative tolerance on float cells (the parallel
    merge reassociates float additions across morsels)."""
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(left, right):
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) and isinstance(b, float):
                if not (math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                        or (math.isnan(a) and math.isnan(b))):
                    return False
            elif a != b:
                return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="table cardinality (default 1M)")
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4],
                        help="worker counts to time (default 2 4)")
    parser.add_argument("--batch-size", type=int, default=16384,
                        help="vectorized batch size for every tier")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="hot repetitions per tier (best-of)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="required speedup at the highest worker count "
                             "(default: 2.0, or 1.3 with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 300k rows, 2 repetitions, "
                             "relaxed speedup bar for shared runners")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a perf-trajectory JSON record to PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.rows = min(args.rows, 300_000)
        args.repetitions = min(args.repetitions, 2)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 1.3 if args.quick else 2.0

    query = (
        "SELECT qty, COUNT(*), SUM(price), MAX(price) FROM lineitem "
        "WHERE discount < 0.08 GROUP BY qty"
    )
    cores = usable_cores()

    with tempfile.TemporaryDirectory() as directory:
        started = time.perf_counter()
        path = build_dataset(directory, args.rows)
        print(f"dataset: {args.rows} rows binary-column "
              f"({time.perf_counter() - started:.2f}s to materialize)")
        print(f"query:   {query}")
        print(f"cores:   {cores} usable")

        failures: list[str] = []
        serial_seconds, serial = time_query(
            make_engine(path, workers=1, batch_size=args.batch_size),
            query, args.repetitions,
        )
        if serial.tier != "vectorized":
            failures.append(
                f"expected serial tier 'vectorized', ran {serial.tier!r}"
            )

        print(f"\n{'tier':<18} {'seconds':>10} {'speedup':>9} "
              f"{'morsels':>8} {'stolen':>7}")
        print(f"{'vectorized':<18} {serial_seconds:>10.4f} {'1.0x':>9}")
        speedups: dict[int, float] = {}
        for workers in args.workers:
            seconds, result = time_query(
                make_engine(path, workers=workers, batch_size=args.batch_size),
                query, args.repetitions,
            )
            if result.tier != "vectorized" or result.profile.morsels_dispatched <= 1:
                failures.append(
                    f"expected a fanned-out 'vectorized' run at {workers} "
                    f"workers, ran {result.tier!r} over "
                    f"{result.profile.morsels_dispatched} morsels"
                )
            if not rows_match(sorted(result.rows), sorted(serial.rows)):
                failures.append(
                    f"parallel rows at {workers} workers disagree with the "
                    "serial tier"
                )
            speedups[workers] = serial_seconds / seconds if seconds else float("inf")
            profile = result.profile
            print(f"{f'parallel x{workers}':<18} {seconds:>10.4f} "
                  f"{speedups[workers]:>8.1f}x {profile.morsels_dispatched:>8} "
                  f"{profile.morsels_stolen:>7}")

        top_workers = max(args.workers)
        achieved = speedups[top_workers]
        gated = cores >= top_workers
        if gated and achieved < min_speedup:
            failures.append(
                f"{achieved:.1f}x speedup at {top_workers} workers is below "
                f"the required {min_speedup:.1f}x"
            )
        if args.json_path:
            import json

            record = {
                "name": "bench_parallel_scaling",
                "rows": args.rows,
                "query": query,
                "usable_cores": cores,
                "tiers": {
                    "vectorized": {
                        "seconds": serial_seconds,
                        "rows_per_sec": (
                            args.rows / serial_seconds if serial_seconds else 0.0
                        ),
                    },
                    **{
                        f"vectorized w{workers}": {
                            "seconds": serial_seconds / speedup if speedup else 0.0,
                            "speedup_over_serial": speedup,
                        }
                        for workers, speedup in speedups.items()
                    },
                },
                "speedup_at_top_workers": achieved,
                "speedup_gate": min_speedup if gated else None,
                "ok": not failures,
                "failures": failures,
            }
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2)
        if failures:
            for failure in failures:
                print(f"\nFAIL: {failure}")
            return 1
        if not gated:
            print(f"\nOK (informational): only {cores} usable core(s) for "
                  f"{top_workers} workers — correctness verified, speedup "
                  f"gate requires >= {top_workers} cores")
            return 0
        print(f"\nOK: morsel-driven tier scales ({achieved:.1f}x at "
              f"{top_workers} workers, identical rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
