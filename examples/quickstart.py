#!/usr/bin/env python3
"""Quickstart: query raw CSV, JSON and binary data through one engine.

This example generates a small heterogeneous data lake (a CSV file, a JSON
object stream and a binary column table), registers the three files with a
:class:`repro.ProteusEngine` — no loading step — and shows the v2 query API:

* ``engine.prepare(text)`` parses, binds and plans a query with ``?`` /
  ``:name`` placeholders **once**; ``pq.execute(value)`` binds constants and
  reuses the single specialized program across calls,
* results are lazy columnar ``ResultSet`` objects — ``column_array`` hands
  out NumPy buffers with no rows round-trip, ``fetch_batches`` streams rows
  in chunks, and ``rows`` materializes tuples only when first touched,
* ``engine.query(text, *params)`` remains as sugar for
  ``prepare(text).execute(*params)``.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from repro import ProteusEngine
from repro.core import types as t
from repro.errors import ProteusError
from repro.storage.binary_format import write_column_table


def build_data_lake(directory: str) -> dict[str, str]:
    """Materialize a small heterogeneous data lake under ``directory``."""
    rng = np.random.RandomState(0)

    # 1. A CSV file of product sales (what an export job might drop).
    sales_csv = os.path.join(directory, "sales.csv")
    with open(sales_csv, "w", encoding="utf-8") as handle:
        handle.write("sale_id,product_id,quantity,amount\n")
        for sale_id in range(500):
            product_id = int(rng.randint(0, 50))
            quantity = int(rng.randint(1, 10))
            handle.write(f"{sale_id},{product_id},{quantity},{quantity * 19.99:.2f}\n")

    # 2. A JSON object stream of products with a nested list of reviews.
    products_json = os.path.join(directory, "products.json")
    with open(products_json, "w", encoding="utf-8") as handle:
        for product_id in range(50):
            record = {
                "product_id": product_id,
                "name": f"product-{product_id}",
                "price": round(float(rng.uniform(5, 120)), 2),
                "vendor": {"name": f"vendor-{product_id % 7}", "country": "CH"},
                "reviews": [
                    {"stars": int(rng.randint(1, 6)), "helpful": int(rng.randint(0, 40))}
                    for _ in range(int(rng.randint(0, 5)))
                ],
            }
            handle.write(json.dumps(record) + "\n")

    # 3. A binary column table of warehouse stock (a pre-existing DBMS table).
    stock_dir = os.path.join(directory, "stock_columns")
    schema = t.make_schema({"product_id": "int", "stock": "int", "reorder_level": "int"})
    write_column_table(
        stock_dir,
        {
            "product_id": np.arange(50, dtype=np.int64),
            "stock": rng.randint(0, 500, size=50).astype(np.int64),
            "reorder_level": rng.randint(10, 60, size=50).astype(np.int64),
        },
        schema,
    )
    return {"sales": sales_csv, "products": products_json, "stock": stock_dir}


def main() -> None:
    directory = tempfile.mkdtemp(prefix="proteus_quickstart_")
    paths = build_data_lake(directory)

    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("sales", paths["sales"])          # raw CSV, no load step
    engine.register_json("products", paths["products"])   # raw JSON, no load step
    engine.register_binary_columns("stock", paths["stock"])

    print("== Prepared statements: specialize once, execute many times ==")
    # The engine specializes one program for the query *shape*; each execute
    # binds new constants without re-parsing, re-planning or re-compiling.
    top_sellers = engine.prepare(
        "SELECT product_id, COUNT(*) AS sales, SUM(amount) AS revenue "
        "FROM sales WHERE quantity >= :min_qty "
        "GROUP BY product_id ORDER BY revenue DESC LIMIT :how_many"
    )
    for min_qty in (1, 8):
        result = top_sellers.execute(min_qty=min_qty, how_many=3)
        print(f"  top sellers with quantity >= {min_qty} (tier={result.tier}):")
        for row in result:
            print(f"    product {row[0]:>3}  sales={row[1]:>3}  revenue={row[2]:>9.2f}")
    print(f"  compiled programs: {len(engine._compiled)} "
          f"(one shape, two parameter bindings)")

    print("\n== Positional parameters and executemany ==")
    restock = engine.prepare(
        "SELECT COUNT(*) FROM sales s JOIN stock k ON s.product_id = k.product_id "
        "WHERE k.stock < ?"
    )
    for threshold, result in zip((50, 150), restock.executemany([(50,), (150,)])):
        print(f"  sales of products with stock < {threshold:>3}: {result.scalar()}")

    print("\n== Lazy columnar results ==")
    result = engine.query("SELECT product_id, quantity, amount FROM sales")
    amounts = result.column_array("amount")   # NumPy buffer, no row tuples built
    print(f"  column_array('amount'): {type(amounts).__name__}[{amounts.dtype}], "
          f"mean={amounts.mean():.2f}")
    first_batch = next(result.fetch_batches(5))  # stream rows in bounded chunks
    print(f"  first fetch_batches(5) chunk: {len(first_batch)} rows")

    print("\n== SQL over JSON with a nested field ==")
    result = engine.query(
        "SELECT vendor.name, COUNT(*) FROM products GROUP BY vendor.name"
    )
    for vendor, count in sorted(result.rows):
        print(f"  {vendor:<10} {count} products")

    print("\n== Comprehension syntax (parameterized) over nested reviews ==")
    good_reviews = engine.prepare(
        "for { p <- products, r <- p.reviews, r.stars >= :stars } yield count"
    )
    for stars in (3, 5):
        print(f"  reviews with {stars}+ stars: {good_reviews.execute(stars=stars).scalar()}")

    print("\n== Batch-native unnest: nested JSON stays on the fast tiers ==")
    # Flattening a nested collection is an offset-vector operation over whole
    # batches (the plug-in returns per-parent repeat counts; parent columns
    # broadcast with one np.repeat) — so unnest queries run on the vectorized
    # tiers, not the tuple-at-a-time interpreter.  ``outer`` keeps products
    # with no reviews, binding the element to null (one row per such parent).
    unnest_engine = ProteusEngine(enable_codegen=False)  # showcase the batch tier
    unnest_engine.register_json("products", paths["products"])
    inner = unnest_engine.query(
        "for { p <- products, r <- p.reviews } yield bag (p.product_id, r.stars)"
    )
    outer = unnest_engine.query(
        "for { p <- products, r <- outer p.reviews } yield bag (p.product_id, r.stars)"
    )
    reviewless = sum(1 for _, stars in outer.rows if stars is None)
    print(f"  inner unnest: {len(inner)} review rows   tier={inner.tier} "
          f"(flattened {inner.profile.unnest_output_rows} elements batch-natively)")
    print(f"  outer unnest: {len(outer)} rows, {reviewless} products without "
          f"reviews kept as null rows   tier={outer.tier}")

    print("\n== Heterogeneous three-format join (CSV ⋈ JSON ⋈ binary) ==")
    result = engine.query(
        "SELECT SUM(s.amount) FROM sales s "
        "JOIN products p ON s.product_id = p.product_id "
        "JOIN stock k ON s.product_id = k.product_id "
        "WHERE p.price > ? AND k.stock > ?",
        50, 100,  # positional parameters through the query() sugar
    )
    print(f"  revenue from well-stocked premium products: {result.scalar():.2f}")

    print("\n== explain(): plan, generated code and the tier-cascade decision ==")
    explanation = engine.explain(
        "SELECT COUNT(*) FROM sales s JOIN stock k ON s.product_id = k.product_id "
        "WHERE k.stock < ?"
    )
    # Print the plan and cascade; elide the generated program for brevity.
    for section in explanation.split("\n\n"):
        if not section.startswith("== generated code"):
            print(section)

    print(f"\nAdaptive caches built as a side effect: {len(engine.cache_entries())} entries")
    for entry in engine.cache_entries()[:5]:
        print(f"  [{entry.kind}] {entry.description} ({entry.size_bytes} bytes)")

    print("\n== Morsel-driven parallel execution ==")
    # parallel_workers is the vectorized tier's worker count: a splittable
    # scan is split into batch-aligned morsels executed by a work-stealing
    # worker pool.  Tune it to the physical core count for scan-heavy
    # workloads; inputs smaller than ~2 morsels (128Ki rows by default) run
    # in the calling thread, so it is safe to leave set.  This demo forces
    # small morsels via a small batch size so the tiny dataset fans out;
    # real deployments keep the default batch size.
    parallel = ProteusEngine(
        enable_codegen=False,          # showcase the vectorized tier
        parallel_workers=max(os.cpu_count() or 1, 2),
        vectorized_batch_size=64,
    )
    parallel.register_csv("sales", paths["sales"])
    by_product = parallel.prepare(
        "SELECT product_id, COUNT(*), SUM(amount) FROM sales "
        "WHERE quantity >= ? GROUP BY product_id ORDER BY product_id LIMIT 3"
    )
    result = by_product.execute(1)
    profile = result.profile
    print(f"  tier={result.tier} workers={profile.parallel_workers} "
          f"morsels={profile.morsels_dispatched} stolen={profile.morsels_stolen}")
    for row in result:
        print(f"  product {row[0]:>3}  sales={row[1]:>3}  revenue={row[2]:>9.2f}")

    print("\n== Columnar ORDER BY: sort strategies ==")
    # ORDER BY / LIMIT live in the physical plan (a Sort root — see
    # explain()) and run through dtype-specialized kernels instead of boxing
    # rows; profile.sort_strategy records which kernel served the query:
    #   lexsort         one stable NumPy permutation over key transforms,
    #   topk            bounded streaming top-K when a LIMIT is present —
    #                   only K rows survive each batch,
    #   parallel-merge  per-morsel sorted runs + a deterministic k-way merge
    #                   when the vectorized tier fans out over workers,
    #   object-fallback boxed comparator for mixed-type object columns.
    full = engine.query("SELECT sale_id, amount FROM sales ORDER BY amount DESC")
    top = engine.query("SELECT sale_id, amount FROM sales ORDER BY amount DESC LIMIT 3")
    print(f"  full sort:  strategy={full.profile.sort_strategy} "
          f"rows_sorted={full.profile.rows_sorted}")
    print(f"  with LIMIT: strategy={top.profile.sort_strategy} "
          f"(top-{len(top)} without a full sort)")
    explanation = engine.explain(
        "SELECT sale_id, amount FROM sales ORDER BY amount DESC LIMIT 3"
    )
    for line in explanation.splitlines():
        if line.startswith("Sort(") or line.startswith("topk:"):
            print(f"  explain: {line}")

    print("\n== Static analysis: prepare-time schema, verdicts and typed errors ==")
    # prepare() runs a static analyzer over the physical plan.  It infers the
    # output schema (dtype + nullability), computes one verdict per execution
    # tier — the first serving verdict is the tier the cascade will pick, and
    # every decline carries a machine-readable TIER0xx code — and rejects
    # structurally broken queries with TYP0xx-coded errors *before* any data
    # is touched.  The same verdicts appear in explain()'s tier-cascade
    # section and, after execution, in profile.tier_decline_reasons (where
    # runtime demotions are recorded under TIER009).
    pq = engine.prepare(
        "SELECT vendor.country AS country, COUNT(*) AS n "
        "FROM products GROUP BY vendor.country"
    )
    analysis = pq.analysis
    print(f"  predicted tier: {analysis.predicted_tier}")
    for info in analysis.columns:
        # Nested record fields are conservatively nullable: only statistics
        # from engine.analyze() can prove a column never misses.
        print(f"    {info.render()}")
    for verdict in analysis.verdicts:
        if not verdict.serves:
            print(f"    {verdict.render()}")
    result = pq.execute()
    print(f"  observed tier:  {result.tier}")
    print(f"  declines recorded in the profile: {result.profile.tier_decline_reasons}")

    # Structural errors surface at prepare() with a diagnostic code naming
    # the dataset and field — not as a crash mid-execution.
    try:
        engine.prepare("SELECT vendor.nosuch AS oops FROM products")
    except ProteusError as exc:
        print(f"  prepare-time type error [{exc.code}]: {exc}")

    # engine.analyze() collects per-field null counts; columns observed to
    # never miss become nullability hints that let the sort kernels and the
    # batch aggregators skip their missing-value scans entirely.
    engine.analyze("sales")
    hinted = engine.prepare("SELECT sale_id, amount FROM sales ORDER BY amount DESC")
    print(f"  proven non-null after analyze('sales'): "
          f"{sorted(hinted.analysis.hints.non_null_columns)}")

    print("\n== Observability: tracing, EXPLAIN ANALYZE and the metrics registry ==")
    # Span tracing is pay-for-what-you-use: off by default (the hot path pays
    # one is-None check), enabled per engine with enable_tracing=True.  Each
    # traced execution lands in a bounded ring buffer as a QueryTrace with
    # engine phases (parse/plan/execute/...) and one span per operator.
    traced = ProteusEngine(enable_tracing=True)
    traced.register_csv("sales", paths["sales"])
    traced.query("SELECT product_id, SUM(amount) FROM sales "
                 "WHERE quantity >= 3 GROUP BY product_id")
    trace = traced.tracer.last()
    print(f"  traced {trace.tier} execution, "
          f"{len(trace.phases)} phases / {len(trace.operators)} operator spans:")
    for span in trace.operators:
        print(f"    {span.name:<14} {span.seconds * 1e3:7.3f} ms  "
              f"rows_out={span.rows_out}")

    # explain(analyze=True) executes the query under a forced trace and
    # renders the plan with the optimizer's estimates beside the measured
    # rows/time per operator, plus the predicted-vs-served tier.
    report = engine.explain(
        "SELECT product_id, COUNT(*) FROM sales WHERE quantity >= 8 "
        "GROUP BY product_id",
        analyze=True,
    )
    for line in report.splitlines()[:4]:
        print(f"  {line}")

    # Every engine carries a thread-safe MetricsRegistry (on by default):
    # queries per tier, a latency histogram, tier-decline codes, cache and
    # per-plugin scan gauges — exported as JSON (to_dict) or Prometheus text
    # (render_prometheus), plus a bounded slow-query log
    # (slow_query_seconds, capturing the active trace when tracing is on).
    snapshot = engine.metrics.to_dict()
    print(f"  queries by tier: {snapshot['proteus_queries_total']['values']}")
    print(f"  cache hit rate:  {snapshot['proteus_cache_hit_rate']['value']:.2f}")
    scrape = engine.metrics.render_prometheus()
    print(f"  prometheus scrape: {len(scrape.splitlines())} lines, e.g. "
          f"{next(l for l in scrape.splitlines() if l.startswith('proteus_queries'))}")

    print("\n== Concurrent clients: one engine, many threads ==")
    # A ProteusEngine is safe to share across threads: the prepared-query
    # cache, the codegen program cache, the plug-in state caches and the
    # byte-budgeted cache manager all publish under locks (the discipline is
    # machine-checked — `python tools/concurrency_lint.py` proves every
    # shared-state mutation guarded and the lock-order graph acyclic).
    # run_concurrently starts the threads barrier-aligned, the worst case
    # for cold shared caches; set_debug_locks(True) (or --stress in the test
    # suite, or PROTEUS_DEBUG_LOCKS=1) swaps every engine lock for a
    # sanitizer that records the runtime lock-order graph and fails fast on
    # deadlock-shaped acquisition patterns.
    from repro.core.concurrency import run_concurrently

    shared = ProteusEngine()
    shared.register_csv("sales", paths["sales"])
    totals = run_concurrently(
        lambda i: shared.query(
            "SELECT SUM(amount) FROM sales WHERE quantity >= ?", i % 4
        ).scalar(),
        8,
    )
    print(f"  8 threads, one engine, one prepared plan: totals={totals[:3]}...")

    print("\n== Resilience: deadlines, cancellation and I/O retry ==")
    # Every query runs under a cooperative QueryContext: deadlines and
    # cancellation are checked per batch / morsel / kernel call / interpreter
    # stride on whichever tier serves the query, and abort with coded
    # RES00x errors (documented in repro/errors.py next to TYP/TIER codes) —
    # never a hang or a leaked worker.  Engine-wide bounds are configured
    # with query_timeout_seconds= / max_concurrent_queries= /
    # query_memory_budget_bytes=; here we use the per-call overrides.
    import threading

    from repro.errors import QueryCancelledError, QueryTimeoutError
    from repro.resilience import (
        CancellationToken,
        FaultInjector,
        FaultPlan,
        FaultSpec,
    )
    from repro.storage.catalog import DataFormat

    resilient = ProteusEngine(enable_codegen=False, enable_caching=False)
    resilient.register_csv("sales", paths["sales"])

    # 1. A deadline: timeout= (seconds) bounds one call; an expired deadline
    #    aborts at the tier's next check with partial progress recorded.
    try:
        resilient.query("SELECT SUM(amount) FROM sales", timeout=0)
    except QueryTimeoutError as exc:
        profile = resilient.last_profile
        print(f"  deadline: {exc} (tier={profile.execution_tier}, "
              f"progress={profile.partial_progress})")

    # 2. Cancellation from another thread: a CancellationToken is shared with
    #    the client; cancel() trips every query holding it at its next check.
    #    (A scripted slow fault keeps the scan busy long enough to land the
    #    cancel mid-flight — the same injector the chaos test suite uses.)
    token = CancellationToken()
    scanning = threading.Event()

    def slow_scan(seconds: float) -> None:
        scanning.set()
        import time as time_module

        time_module.sleep(seconds)

    resilient.plugins[DataFormat.CSV].install_fault_injector(
        FaultInjector(
            FaultPlan([FaultSpec(kind="slow", at_call=call, times=None,
                                 delay_seconds=0.02) for call in range(1, 9)]),
            sleep=slow_scan,
        )
    )
    canceller = threading.Thread(
        target=lambda: (scanning.wait(5.0), token.cancel())
    )
    canceller.start()
    try:
        resilient.query("SELECT SUM(amount) FROM sales", cancel=token)
    except QueryCancelledError as exc:
        print(f"  cancelled from another thread: {exc}")
    finally:
        canceller.join()

    # 3. Transient I/O faults are retried with exponential backoff under a
    #    per-query budget (io_retry_budget=): a one-shot OSError on the scan
    #    path is absorbed and the query still returns the exact result.
    resilient.plugins[DataFormat.CSV].install_fault_injector(
        FaultInjector(FaultPlan([FaultSpec(kind="io-error", at_call=1)]))
    )
    result = resilient.query("SELECT COUNT(*) FROM sales")
    print(f"  survived an injected scan fault: {result.scalar()} rows, "
          f"io_retries={resilient.last_profile.io_retries} "
          f"(also counted in proteus_io_retries_total)")

    print("\n== Serving: the engine as a concurrent HTTP query service ==")
    # ProteusServer mounts ONE shared engine behind a threaded JSON-over-HTTP
    # API (stdlib only).  POST /v1/query takes {query, args, params,
    # timeout_ms, query_id} and returns columns + data + tier + profile;
    # query texts go through the engine's per-text prepared cache, so every
    # client sending the same text shares one plan.  Coded engine errors map
    # onto HTTP statuses (RES003->429, RES001->408, RES002->499, TYP->400 —
    # table in repro/errors.py), DELETE /v1/query/<id> cancels an in-flight
    # query from another connection, and GET /metrics serves the Prometheus
    # scrape with the exact v0.0.4 content type.
    import urllib.request

    from repro import ProteusServer

    def http_json(url: str, payload: dict | None = None) -> dict:
        data = json.dumps(payload).encode() if payload is not None else None
        with urllib.request.urlopen(
            urllib.request.Request(url, data=data), timeout=10
        ) as response:
            return json.loads(response.read())

    with ProteusServer(shared) as server:   # the engine threads shared above
        print(f"  listening on {server.url} (ephemeral port, handler "
              f"thread per connection)")
        bodies = run_concurrently(
            lambda i: http_json(
                server.url + "/v1/query",
                {"query": "SELECT COUNT(*), SUM(amount) FROM sales "
                          "WHERE quantity >= :q",
                 "params": {"q": 3}},
            ),
            2,
        )
        for body in bodies:
            print(f"  client got {body['data']} via tier={body['tier']}")
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
            content_type = r.headers["Content-Type"]
            http_hits = next(
                line for line in r.read().decode().splitlines()
                if line.startswith("proteus_http_requests_total")
            )
        print(f"  /metrics ({content_type}):")
        print(f"    {http_hits}")
    print("  server stopped; no handler or worker threads survive stop()")


if __name__ == "__main__":
    main()
