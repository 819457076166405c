"""Layer spans recorded from outside the engine.

The traced run wraps the public entry points of each layer — the server's
request handler and result encoder, ``ProteusEngine.prepare``,
``PreparedQuery.execute``, ``ResultSet`` materialization, every plug-in
instance's ``scan_*`` methods, ``ScanCoalescer.acquire`` and
``CacheManager.invalidate_dataset`` — with span recorders installed from
this file at run time.  No engine source changes, and the engine's own
``enable_tracing`` spans are not used.

A span is ``[id, name, start, end, parent id, request id, attrs]``.  Parents
come from a per-thread stack, so a span's children are strictly nested in
it and its *self time* is its duration minus theirs.  Spans stay in memory
until the run ends.  The request id links the spans of one query: the load
generator's client span and, over HTTP, the server spans carry the
request's ``query_id``.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

#: Plug-in entry points wrapped per instance (the six scan primitives).
SCAN_METHODS = (
    "scan_columns",
    "scan_columns_at",
    "scan_batches",
    "scan_batch_ranges",
    "scan_unnest",
    "scan_unnest_batch",
)

#: Plug-in formats reported per layer (binary rows are not in any workload).
PLUGIN_FORMATS = ("json", "csv", "binary_column", "cache")

#: Execution tiers reported per layer.  The vectorized-parallel tier is left
#: out: the engines run with the default ``parallel_workers=1``, and the
#: plans codegen leaves to a lower tier (the null-key group-by) read an 8k-row
#: file, a single morsel, which that tier declines anyway.
TIERS = ("codegen", "vectorized", "volcano")


class Recorder:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> str | None:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: str | None) -> None:
        self._local.request = value

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent, self.request, None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[3] = time.perf_counter()
        if span[5] is None:
            span[5] = self.request
        if attrs:
            span[6] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def traced(self, fn: Callable, name: str,
               attrs_of: Callable[[Any, tuple], dict | None] | None = None) -> Callable:
        """A recording wrapper of ``fn``.  Iterators the call returns are
        wrapped too: their work happens in ``next()``."""
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.close(span, {"error": True})
                raise
            recorder.close(span, attrs_of(result, args) if attrs_of else None)
            if hasattr(result, "__next__"):
                return recorder._timed_iter(result, name)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             attrs_of: Callable[[Any, tuple], dict | None] | None = None) -> None:
        """Replace ``owner.attr`` (a class or an instance attribute) by
        :meth:`traced` of itself."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, attrs_of))

    def _timed_iter(self, iterator, name: str):
        while True:
            span = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(span)
                return
            except BaseException:
                self.close(span, {"error": True})
                raise
            self.close(span)
            yield item


# ---------------------------------------------------------------------------
# Installation (inside the engine process)
# ---------------------------------------------------------------------------


def _profile_attrs(result, _args) -> dict:
    profile = result.profile
    reasons = getattr(profile, "tier_decline_reasons", {}) or {}
    return {
        "tier": result.tier,
        "rows_scanned": profile.rows_scanned,
        "output_rows": profile.output_rows,
        "batches": profile.batches_processed,
        "rows_sorted": profile.rows_sorted,
        "from_cache": profile.values_from_cache,
        "extracted": profile.values_extracted,
        "compiled_from_cache": bool(profile.compiled_from_cache),
        "demoted": any("TIER009" in str(reason) for reason in reasons.values()),
    }


def install(recorder: Recorder, engine, server=None) -> None:
    """Wrap every traced entry point of ``engine`` (and ``server``)."""
    from repro.caching.coalesce import ScanCoalescer
    from repro.caching.manager import CacheManager
    from repro.core.engine import PreparedQuery, ResultSet

    recorder.wrap(engine, "prepare", "engine.prepare")
    recorder.wrap(PreparedQuery, "execute", "engine.execute", _profile_attrs)
    recorder.wrap(ResultSet, "column", "engine.materialize")
    recorder.wrap(ResultSet, "fetch_batches", "engine.materialize")
    ResultSet.rows = property(recorder.traced(ResultSet.rows.fget, "engine.materialize"))
    for plugin in engine.plugins.values():
        for method in SCAN_METHODS:
            if hasattr(plugin, method):
                recorder.wrap(plugin, method, f"plugins.{plugin.format_name}.scan")
    recorder.wrap(ScanCoalescer, "acquire", "caching.coalesce_wait")
    recorder.wrap(CacheManager, "invalidate_dataset", "caching.invalidate",
                  lambda count, _args: {"entries": count})
    if server is not None:
        import repro.serve.server as server_module

        recorder.wrap(server_module, "encode_result", "serve.encode")
        # The request's query_id tags every span of its handler thread.
        register = server.queries.register

        def tagged_register(query_id):
            recorder.request = query_id
            return register(query_id)

        server.queries.register = tagged_register
        handler = server_module._Handler
        recorder.wrap(handler, "handle", "serve.handle")
        handle = handler.handle

        def handle_and_untag(self):
            try:
                handle(self)
            finally:
                recorder.request = None

        handler.handle = handle_and_untag


def engine_counters(engine) -> dict:
    """Cache and coalescing counters (diffed across the traced phase)."""
    stats = engine.cache_stats
    coalesced = engine.metrics.counter("proteus_scans_coalesced_total").samples()
    return {
        "lookups": stats.lookups if stats else 0,
        "hits": stats.hits if stats else 0,
        "stores": stats.stores if stats else 0,
        "evictions": stats.evictions if stats else 0,
        "used_bytes": engine.cache_manager.used_bytes if engine.cache_manager else 0,
        "coalesced": sum(value for _labels, value in coalesced),
    }


# ---------------------------------------------------------------------------
# Analysis (in the load generator, after the run)
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in out:
            out[parent] -= span[3] - span[2]
    return out


def layer_metrics(server_spans: list[list], client_spans: list[list],
                  before: dict, after: dict, builds: list[float],
                  over_http: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase (``name -> (value, unit)``).

    ``client_spans`` are the load generator's one-per-query spans (the
    denominator of every per-query figure); ``before``/``after`` are
    :func:`engine_counters` snapshots; ``builds`` are structural-index
    build seconds observed during the phase.
    """
    queries = max(len(client_spans), 1)
    own = self_times(server_spans)
    by_name: dict[str, list[list]] = {}
    for span in server_spans:
        by_name.setdefault(span[1], []).append(span)

    def self_ms(name: str) -> float:
        return sum(own[s[0]] for s in by_name.get(name, ())) * 1000.0

    def per_query(value: float) -> float:
        return value / queries

    executes = [s for s in by_name.get("engine.execute", ()) if s[6] and "tier" in s[6]]
    runs = max(len(executes), 1)
    m: dict[str, tuple[float, str]] = {}

    # serve: client round trip minus the engine and the encoder, per request.
    if over_http:
        inclusive: dict[str, float] = {}
        for span in server_spans:
            if span[1] in ("engine.execute", "serve.encode") and span[5]:
                inclusive[span[5]] = inclusive.get(span[5], 0.0) + span[3] - span[2]
        roundtrip = [s[3] - s[2] for s in client_spans]
        overhead = [s[3] - s[2] - inclusive.get(s[5], 0.0) for s in client_spans]
        sizes = [s[6]["bytes"] for s in client_spans if s[6]]
        m["serve.roundtrip_ms"] = (1000.0 * sum(roundtrip) / queries, "ms")
        m["serve.encode_ms"] = (per_query(self_ms("serve.encode")), "ms")
        m["serve.overhead_ms"] = (1000.0 * sum(overhead) / queries, "ms")
        m["serve.response_kb"] = (sum(sizes) / max(len(sizes), 1) / 1024.0, "KiB")
    else:
        for name, unit in (("roundtrip_ms", "ms"), ("encode_ms", "ms"),
                           ("overhead_ms", "ms"), ("response_kb", "KiB")):
            m[f"serve.{name}"] = (0.0, unit)

    # core.engine
    prepared_requests = {s[5] for s in by_name.get("engine.prepare", ()) if s[5]}
    m["engine.prepare_ms"] = (per_query(self_ms("engine.prepare")), "ms")
    m["engine.prepare_calls"] = (per_query(len(by_name.get("engine.prepare", ()))), "1/query")
    m["engine.prepare_hit_ratio"] = (
        sum(1 for s in executes if s[5] not in prepared_requests) / runs, "ratio")
    for tier in TIERS:
        on_tier = [s for s in executes if s[6]["tier"] == tier]
        m[f"engine.execute_ms.{tier}"] = (
            1000.0 * sum(own[s[0]] for s in on_tier) / max(len(on_tier), 1), "ms")
        m[f"engine.tier_share.{tier}"] = (len(on_tier) / runs, "ratio")
    m["engine.demotions"] = (sum(s[6]["demoted"] for s in executes) / runs, "1/query")
    m["engine.materialize_ms"] = (per_query(self_ms("engine.materialize")), "ms")

    # core.codegen
    codegen = [s for s in executes if s[6]["tier"] == "codegen"]
    m["codegen.cache_hit_ratio"] = (
        sum(s[6]["compiled_from_cache"] for s in codegen) / max(len(codegen), 1), "ratio")

    # executors
    total = {key: sum(s[6][key] for s in executes)
             for key in ("rows_scanned", "output_rows", "batches", "rows_sorted",
                         "from_cache", "extracted")}
    m["executor.rows_scanned_per_output_row"] = (
        total["rows_scanned"] / max(total["output_rows"], 1), "ratio")
    m["executor.batches"] = (total["batches"] / runs, "1/query")
    m["sort.rows_sorted"] = (total["rows_sorted"] / runs, "1/query")

    # plugins
    for fmt in PLUGIN_FORMATS:
        name = f"plugins.{fmt}.scan"
        m[f"plugins.{fmt}.scan_ms"] = (per_query(self_ms(name)), "ms")
        m[f"plugins.{fmt}.scan_calls"] = (per_query(len(by_name.get(name, ()))), "1/query")
    read = total["from_cache"] + total["extracted"]
    m["plugins.cache_served_ratio"] = (total["from_cache"] / max(read, 1), "ratio")

    # storage
    m["storage.index_build_ms"] = (1000.0 * sum(builds) / max(len(builds), 1), "ms")
    m["storage.index_builds"] = (per_query(len(builds)), "1/query")

    # caching
    lookups = after["lookups"] - before["lookups"]
    m["caching.hit_ratio"] = ((after["hits"] - before["hits"]) / max(lookups, 1), "ratio")
    m["caching.stores"] = (per_query(after["stores"] - before["stores"]), "1/query")
    m["caching.evictions"] = (per_query(after["evictions"] - before["evictions"]), "1/query")
    m["caching.used_mb"] = (after["used_bytes"] / 2**20, "MiB")
    invalidated = sum((s[6] or {}).get("entries", 0) for s in by_name.get("caching.invalidate", ()))
    m["caching.invalidated_entries"] = (per_query(invalidated), "1/query")
    m["caching.coalesced_scans"] = (per_query(after["coalesced"] - before["coalesced"]), "1/query")
    m["caching.coalesce_wait_ms"] = (per_query(self_ms("caching.coalesce_wait")), "ms")
    return m
