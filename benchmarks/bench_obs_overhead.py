"""Observability overhead benchmark: tracing must be pay-for-what-you-use.

The tracing layer (:mod:`repro.obs`) promises two things:

* **disabled** (the default) it costs ~nothing — every instrumentation site
  reduces to one ``is None`` / attribute check, and the batch pipelines run
  the exact same unwrapped stage objects as a pre-observability engine,
* **enabled** it stays under a small bounded overhead — operator spans are
  accumulators fed once per *batch* (never per row), and the Volcano wrapper
  flushes one locally-accumulated total per exhausted iterator.

This benchmark times the same prepared query on three engines — tracing on,
tracing off (metrics recording still on, the default), and fully bare
(``enable_metrics=False``) — and gates the ratios:

* traced / bare       < 1.05   (tracing enabled: < 5% overhead)
* untraced / bare     < 1.03   (tracing disabled: noise-level overhead)

The workload runs the vectorized tier with the default 4096-row batches over
enough rows to produce hundreds of batches, so the per-batch wrappers are
exercised as hard as a realistic scan does.  Ratios are computed over
best-of timings to shed scheduler noise.

Standalone script (like ``bench_static_analysis.py``) so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick

Exits non-zero if an overhead gate fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np

QUERY = (
    "SELECT SUM(v) AS s, MIN(w) AS mn, MAX(v) AS mx, AVG(w) AS av, "
    "COUNT(*) AS n FROM events WHERE v > 250000.0 AND w < 750000.0"
)


def build_dataset(directory: str, rows: int) -> str:
    from repro.core import types as t
    from repro.storage.binary_format import write_column_table

    rng = np.random.RandomState(23)
    schema = t.make_schema({"id": "int", "v": "float", "w": "float"})
    columns = {
        "id": np.arange(rows, dtype=np.int64),
        "v": rng.uniform(0.0, 1_000_000.0, size=rows),
        "w": rng.uniform(0.0, 1_000_000.0, size=rows),
    }
    path = f"{directory}/obs_columns"
    write_column_table(path, columns, schema)
    return path


def make_engine(path: str, **kwargs):
    from repro import ProteusEngine

    # The vectorized tier exercises the per-batch stage wrappers; caching is
    # off so every execution re-scans (the overhead we are measuring).
    engine = ProteusEngine(
        enable_caching=False, enable_codegen=False,
        **kwargs,
    )
    engine.register_binary_columns("events", path)
    return engine


def _median(values: list) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def paired_rounds(repeats: int, functions: dict) -> dict:
    """Per-configuration single-execution timings, taken in paired rounds.

    Configurations are timed round-robin within every round, so slow drift
    (cache warmth, thermal throttling, a noisy neighbour) hits all of them
    alike.  Overhead is then judged on the *median of per-round ratios*
    against the baseline — each ratio compares executions that ran
    milliseconds apart under the same machine conditions, which is far more
    robust than comparing minima taken minutes apart.
    """
    samples: dict = {name: [] for name in functions}
    for _ in range(repeats):
        for name, fn in functions.items():
            started = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - started)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="table cardinality (default 1M)")
    parser.add_argument("--repeats", type=int, default=40,
                        help="interleaved timing rounds (best single "
                             "execution per configuration)")
    parser.add_argument("--traced-gate", type=float, default=1.05,
                        help="max traced/bare ratio (default 1.05)")
    parser.add_argument("--disabled-gate", type=float, default=1.03,
                        help="max untraced/bare ratio (default 1.03)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 400k rows, same gates")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a perf-trajectory JSON record to PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.rows = min(args.rows, 400_000)

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as directory:
        path = build_dataset(directory, args.rows)

        bare = make_engine(path, enable_metrics=False)
        untraced = make_engine(path)
        traced = make_engine(path, enable_tracing=True)

        configurations = [
            ("bare", bare),
            ("untraced", untraced),
            ("traced", traced),
        ]
        prepared = {}
        for name, engine in configurations:
            statement = engine.prepare(QUERY)
            statement.execute()  # warm-up: structural index, file mmap
            prepared[name] = statement

        samples = paired_rounds(
            args.repeats,
            {name: prepared[name].execute for name, _ in configurations},
        )
        expected = prepared["bare"].execute().rows
        for name in ("untraced", "traced"):
            if prepared[name].execute().rows != expected:
                failures.append(f"{name} engine changed the query result")

        trace = traced.tracer.last()
        if trace is None or not trace.operators:
            failures.append("traced engine recorded no operator spans")

    traced_ratio = _median(
        [t / b for t, b in zip(samples["traced"], samples["bare"])]
    )
    disabled_ratio = _median(
        [u / b for u, b in zip(samples["untraced"], samples["bare"])]
    )

    batches = args.rows // 4096 + 1
    print(f"observability overhead over {args.rows:,} rows "
          f"(~{batches} batches/execution, median ratio over "
          f"{args.repeats} paired rounds)")
    for name, _ in [("bare", None), ("untraced", None), ("traced", None)]:
        print(f"  {name:<9}{min(samples[name]) * 1e3:9.1f} ms (best)")
    print(f"  traced / bare    {traced_ratio:.3f}x  (gate < {args.traced_gate:.2f}x)")
    print(f"  untraced / bare  {disabled_ratio:.3f}x  (gate < {args.disabled_gate:.2f}x)")

    if traced_ratio >= args.traced_gate:
        failures.append(
            f"tracing-enabled overhead {traced_ratio:.3f}x exceeds the "
            f"{args.traced_gate:.2f}x gate"
        )
    if disabled_ratio >= args.disabled_gate:
        failures.append(
            f"tracing-disabled overhead {disabled_ratio:.3f}x exceeds the "
            f"{args.disabled_gate:.2f}x gate"
        )

    if args.json_path:
        import json

        record = {
            "name": "bench_obs_overhead",
            "rows": args.rows,
            "bare_seconds": min(samples["bare"]),
            "untraced_seconds": min(samples["untraced"]),
            "traced_seconds": min(samples["traced"]),
            "traced_ratio": traced_ratio,
            "disabled_ratio": disabled_ratio,
            "traced_gate": args.traced_gate,
            "disabled_gate": args.disabled_gate,
            "ok": not failures,
            "failures": failures,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: tracing stays under its overhead gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
