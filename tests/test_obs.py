"""Observability subsystem tests: tracing, metrics, EXPLAIN ANALYZE, and
cross-tier profile-counter consistency.

The differential tests pin the counter contract the tracing layer reports
against: ``rows_scanned`` / ``output_rows`` / ``unnest_output_rows`` must be
*identical* across every execution tier and worker count for the same query,
so a span or metric means the same thing no matter which tier served the
execution.
"""

from __future__ import annotations

import pytest

from repro.core.codegen.runtime import ExecutionProfile
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import PHASES, TraceBuilder

from tests.conftest import PARALLEL_CONFIG, make_engine, served_tier

# -- differential counter consistency -----------------------------------------

#: Configuration label -> engine kwargs forcing that tier to serve.  Small
#: batches and two workers make the vectorized tier split work into morsels.
TIER_CONFIGS = {
    "codegen": {},
    PARALLEL_CONFIG: {
        "enable_codegen": False,
        "parallel_workers": 2,
        "vectorized_batch_size": 16,
    },
    "vectorized": {
        "enable_codegen": False,
        "vectorized_batch_size": 16,
    },
    "volcano": {"enable_codegen": False, "enable_vectorized": False},
}

#: Queries spanning scan/filter/aggregate/group-by/join/unnest shapes.  No
#: bare LIMIT queries: the scan counters deliberately count pre-predicate
#: work, which early termination makes tier-dependent.
DIFFERENTIAL_QUERIES = [
    "SELECT SUM(price) AS s, COUNT(*) AS n FROM items_json WHERE qty < 5",
    "SELECT qty, COUNT(*) AS n, MAX(price) AS m FROM items_bin "
    "GROUP BY qty ORDER BY qty",
    "SELECT COUNT(*) FROM items_json j JOIN items_csv c ON j.id = c.id "
    "WHERE j.qty < 3",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item, l.qty)",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield sum (l.price)",
]


@pytest.fixture(scope="module")
def tier_engines(tmp_path_factory, request):
    # Rebuild the session datasets via the paths fixture indirectly: the
    # conftest data_dir fixture is session-scoped, so reuse it through a
    # module-scoped request.
    data_dir = request.getfixturevalue("data_dir")
    import os

    paths = {
        "items_csv": os.path.join(data_dir, "items.csv"),
        "items_json": os.path.join(data_dir, "items.json"),
        "orders_json": os.path.join(data_dir, "orders.json"),
        "items_columns": os.path.join(data_dir, "items_columns"),
        "items_rows": os.path.join(data_dir, "items_rows.bin"),
    }
    return {
        tier: make_engine(paths, enable_caching=False, **kwargs)
        for tier, kwargs in TIER_CONFIGS.items()
    }


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_profile_counters_identical_across_tiers(tier_engines, query):
    profiles = {}
    rows = {}
    for tier, engine in tier_engines.items():
        result = engine.query(query)
        assert result.profile is not None
        assert result.profile.execution_tier == served_tier(tier), (
            f"{tier} engine was served by {result.profile.execution_tier}"
        )
        profiles[tier] = result.profile
        rows[tier] = sorted(map(repr, result.rows))
    reference = profiles["volcano"]
    for tier, profile in profiles.items():
        assert profile.rows_scanned == reference.rows_scanned, tier
        assert profile.output_rows == reference.output_rows, tier
        assert profile.unnest_output_rows == reference.unnest_output_rows, tier
        assert rows[tier] == rows["volcano"], tier


# -- ExecutionProfile.merge regression ----------------------------------------


def test_merge_adopts_slowest_tier():
    merged = ExecutionProfile(execution_tier="codegen")
    merged.merge(ExecutionProfile(execution_tier="vectorized"))
    assert merged.execution_tier == "vectorized"
    # Merging a faster-tier fragment must not roll the attribution back.
    merged.merge(ExecutionProfile(execution_tier="codegen"))
    assert merged.execution_tier == "vectorized"
    merged.merge(ExecutionProfile(execution_tier="volcano"))
    assert merged.execution_tier == "volcano"


def test_merge_generated_code_flags_and_when_any_fragment_interpreted():
    merged = ExecutionProfile(used_generated_code=True, compiled_from_cache=True)
    merged.merge(
        ExecutionProfile(
            execution_tier="volcano",
            used_generated_code=False,
            compiled_from_cache=False,
        )
    )
    assert merged.used_generated_code is False
    assert merged.compiled_from_cache is False
    assert merged.execution_tier == "volcano"


def test_merge_keeps_additive_counters_additive():
    merged = ExecutionProfile(rows_scanned=10, output_rows=2, unnest_output_rows=1)
    merged.merge(
        ExecutionProfile(rows_scanned=5, output_rows=3, unnest_output_rows=4)
    )
    assert merged.rows_scanned == 15
    assert merged.output_rows == 5
    assert merged.unnest_output_rows == 5


# -- span tracing --------------------------------------------------------------


def test_traced_engine_records_phases_and_operator_spans(paths):
    engine = make_engine(paths, enable_tracing=True, enable_caching=False)
    engine.query("SELECT SUM(price) AS s FROM items_bin WHERE qty < 5")
    trace = engine.tracer.last()
    assert trace is not None
    phase_names = {span.name for span in trace.phases}
    assert {"parse", "plan", "analyze", "execute", "materialize"} <= phase_names
    assert all(name in PHASES for name in phase_names)
    assert all(span.seconds >= 0.0 for span in trace.phases)
    assert trace.operators, "no operator spans recorded"
    scan = trace.operator_span("scan:items_bin")
    assert scan is not None
    assert scan.rows_out == 120
    assert trace.elapsed_seconds > 0.0
    exported = trace.to_dict()
    assert exported["tier"] == trace.tier
    assert len(exported["operators"]) == len(trace.operators)


def test_trace_ring_buffer_is_bounded(paths):
    engine = make_engine(
        paths, enable_tracing=True, enable_caching=False, trace_capacity=2
    )
    for bound in (2, 4, 6):
        engine.query(f"SELECT COUNT(*) FROM items_csv WHERE qty < {bound}")
    traces = engine.tracer.traces()
    assert len(traces) == 2
    assert "qty < 4" in traces[0].query_text
    assert "qty < 6" in traces[1].query_text
    assert engine.tracer.last() is traces[-1]


def test_tracing_disabled_records_nothing(paths):
    engine = make_engine(paths, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    assert engine.tracer.traces() == []
    assert engine.tracer.last() is None


def test_tracer_spans_cover_every_tier(paths):
    for tier, kwargs in TIER_CONFIGS.items():
        engine = make_engine(
            paths, enable_tracing=True, enable_caching=False, **kwargs
        )
        result = engine.query(
            "SELECT SUM(price) AS s FROM items_json WHERE qty < 7"
        )
        assert result.profile.execution_tier == served_tier(tier)
        trace = engine.tracer.last()
        assert trace is not None and trace.tier == served_tier(tier)
        assert trace.operators, f"{tier} recorded no operator spans"
        total_rows = sum(span.rows_out for span in trace.operators)
        assert total_rows > 0, f"{tier} spans carry no row counts"


def test_trace_builder_keys_spans_by_plan_node():
    builder = TraceBuilder("q", None)
    first = builder.operator("scan:a")
    again = builder.operator("scan:a")
    other = builder.operator("scan:b")
    assert first is again
    assert other is not first
    first.add(seconds=0.5, rows_out=10, batches=1)
    first.add_batch(0.25, 4, 4)
    spans = builder.operator_spans()
    span = next(s for s in spans if s.name == "scan:a")
    assert span.seconds == pytest.approx(0.75)
    assert span.rows_out == 14
    assert span.batches == 2


def test_tracer_force_is_temporary():
    tracer = Tracer(enabled=False)
    with tracer.force():
        assert tracer.enabled
        builder = tracer.begin("q", None)
        assert builder is not None
        tracer.finish(builder, None, 0.0)
    assert not tracer.enabled
    assert tracer.begin("q2", None) is None
    assert len(tracer.traces()) == 1


# -- metrics registry ----------------------------------------------------------


def test_metrics_count_queries_by_tier(paths):
    engine = make_engine(paths, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    engine.query("SELECT COUNT(*) FROM items_json WHERE qty < 5")
    counter = engine.metrics.counter("proteus_queries_total")
    assert counter.value(tier="codegen") == 2
    histogram = engine.metrics.histogram("proteus_query_seconds")
    assert histogram.count == 2
    assert histogram.sum > 0.0


def test_metrics_record_tier_declines_with_codes(paths):
    engine = make_engine(
        paths, enable_caching=False, enable_codegen=False
    )
    engine.query("SELECT COUNT(*) FROM items_csv")
    declines = engine.metrics.counter("proteus_tier_declines_total")
    samples = declines.samples()
    assert samples, "no tier declines recorded"
    tiers = {dict(key)["tier"] for key, _ in samples}
    assert "codegen" in tiers
    assert all(dict(key)["code"].startswith("TIER") for key, _ in samples)


def test_metrics_disabled_records_nothing(paths):
    engine = make_engine(paths, enable_metrics=False, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    exported = engine.metrics.to_dict()
    assert exported == {"slow_queries": []}


def test_cache_gauges_read_live_state(paths):
    engine = make_engine(paths)
    engine.query("SELECT SUM(price) FROM items_bin")
    engine.query("SELECT SUM(price) FROM items_bin")
    exported = engine.metrics.to_dict()
    assert exported["proteus_cache_lookups"]["value"] > 0
    assert 0.0 <= exported["proteus_cache_hit_rate"]["value"] <= 1.0
    scan_calls = exported["proteus_plugin_scan_calls"]["values"]
    assert any(value > 0 for value in scan_calls.values())


def test_slow_query_log_captures_trace(paths):
    engine = make_engine(
        paths,
        enable_tracing=True,
        enable_caching=False,
        slow_query_seconds=0.0,  # every query qualifies
    )
    engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    slow = engine.metrics.slow_queries()
    assert len(slow) == 1
    entry = slow[0]
    assert "items_csv" in entry["query"]
    assert entry["seconds"] >= 0.0
    assert entry["trace"]["operators"], "slow-query entry lost its trace"


def test_prometheus_rendering_shape():
    registry = MetricsRegistry()
    counter = registry.counter("proteus_test_total", "A test counter.")
    counter.inc(3, tier="codegen")
    counter.inc(1, tier="volcano")
    histogram = registry.histogram(
        "proteus_test_seconds", "A test histogram.", buckets=(0.1, 1.0)
    )
    histogram.observe(0.05)
    histogram.observe(5.0)
    text = registry.render_prometheus()
    assert "# TYPE proteus_test_total counter" in text
    assert 'proteus_test_total{tier="codegen"} 3' in text
    assert 'proteus_test_total{tier="volcano"} 1' in text
    assert "# TYPE proteus_test_seconds histogram" in text
    assert 'proteus_test_seconds_bucket{le="0.1"} 1' in text
    assert 'proteus_test_seconds_bucket{le="+Inf"} 2' in text
    assert "proteus_test_seconds_count 2" in text


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("proteus_thing")
    with pytest.raises(ValueError):
        registry.histogram("proteus_thing")


def test_gauge_callback_mapping_labels():
    registry = MetricsRegistry()
    registry.gauge_callback(
        "proteus_plugin_bytes",
        lambda: {"csv": 10.0, "json": 20.0},
        callback_label="format",
    )
    text = registry.render_prometheus()
    assert 'proteus_plugin_bytes{format="csv"} 10' in text
    assert 'proteus_plugin_bytes{format="json"} 20' in text


# -- EXPLAIN ANALYZE -----------------------------------------------------------


@pytest.mark.parametrize("tier", list(TIER_CONFIGS))
def test_explain_analyze_reports_every_tier(paths, tier):
    engine = make_engine(paths, enable_caching=False, **TIER_CONFIGS[tier])
    report = engine.explain(
        "SELECT SUM(price) AS s FROM items_json WHERE qty < 5", analyze=True
    )
    assert "== explain analyze ==" in report
    assert f"tier: {served_tier(tier)}" in report
    assert "== plan: estimated vs actual ==" in report
    assert "est" in report and "actual" in report
    assert "== phases ==" in report
    assert "== tier cascade ==" in report


def test_explain_analyze_marks_prediction_agreement(engine):
    report = engine.explain("SELECT COUNT(*) FROM items_bin", analyze=True)
    assert "as predicted" in report or "DEMOTED" in report


def test_explain_analyze_leaves_tracing_disabled(paths):
    engine = make_engine(paths, enable_caching=False)
    assert not engine.tracer.enabled
    engine.explain("SELECT COUNT(*) FROM items_csv", analyze=True)
    assert not engine.tracer.enabled
    # The forced trace itself is retained for inspection.
    assert engine.tracer.last() is not None
    # Later ordinary queries are not traced.
    engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 2")
    assert len(engine.tracer.traces()) == 1


def test_explain_without_analyze_does_not_execute(paths):
    engine = make_engine(paths, enable_caching=False)
    report = engine.explain("SELECT COUNT(*) FROM items_csv")
    assert "== physical plan ==" in report
    assert "== explain analyze ==" not in report
    counter = engine.metrics.counter("proteus_queries_total")
    assert counter.samples() == []
