"""Tests for the vectorized tier's morsel-driven parallel execution.

Covers:

* a differential suite asserting the volcano tier and the vectorized tier
  at one and at several workers return identical rows (nulls, NaN, big
  ints, ORDER BY, LIMIT, joins, group-bys, unnest, empty morsels) across
  worker counts 1 / 2 / 8,
* determinism: repeated parallel runs return identical row orderings, and
  integer results are bit-identical to a serial run,
* no fan-out for unsplittable scans and single-morsel inputs (served in the
  calling thread), and the Volcano fallback for non-vectorizable shapes,
* the vectorized tier's use of the adaptive cache (hits and
  materializations),
* unit coverage of morsel planning, the work-stealing scheduler, the
  partition-parallel radix-table build and the plug-in
  ``scan_batch_ranges`` API.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import types as t
from repro.core.executor import radix
from repro.core.parallel import Morsel, WorkerPool, WorkStealingQueue, plan_morsels
from repro.core.executor.vectorized import VectorizedExecutor
from repro.storage.binary_format import write_column_table, write_row_table

SAILOR_COUNT = 600
SHIP_COUNT = 250
NULL_COUNT = 300

SAILORS_SCHEMA = t.make_schema(
    {"sid": "int", "sname": "string", "rating": "int", "age": "float"}
)
NULLS_SCHEMA = t.make_schema({"id": "int", "val": "float", "tag": "string"})
ORDERS_SCHEMA = t.make_schema(
    {
        "okey": "int",
        "total": "float",
        "origin": {"country": "string"},
        "lines": [{"item": "int", "qty": "int"}],
    }
)

#: Small batches so the small test datasets split into many morsels.
BATCH_SIZE = 32


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("parallel_workloads")

    with open(directory / "sailors.csv", "w", encoding="utf-8") as handle:
        handle.write("sid,sname,rating,age\n")
        for i in range(SAILOR_COUNT):
            handle.write(f"{i},sailor{i % 7},{i % 10},{18.0 + (i * 3) % 40}\n")

    ships_schema = t.make_schema(
        {"shid": "int", "owner": "int", "tons": "float", "built": "int"}
    )
    write_column_table(
        str(directory / "ships_columns"),
        {
            "shid": np.arange(SHIP_COUNT, dtype=np.int64),
            "owner": (np.arange(SHIP_COUNT) * 3 % SAILOR_COUNT).astype(np.int64),
            "tons": np.round(50.0 + np.arange(SHIP_COUNT) * 7.5, 2),
            "built": (1980 + np.arange(SHIP_COUNT) % 30).astype(np.int64),
        },
        ships_schema,
    )

    with open(directory / "nulls.json", "w", encoding="utf-8") as handle:
        for i in range(NULL_COUNT):
            record = {
                "id": i,
                "val": None if i % 3 == 0 else i * 2.0,
                "tag": None if i % 5 == 0 else f"t{i % 2}",
            }
            handle.write(json.dumps(record) + "\n")

    with open(directory / "nanvals.csv", "w", encoding="utf-8") as handle:
        handle.write("id,val\n")
        for i in range(120):
            handle.write(f"{i},{'nan' if i % 4 == 0 else i * 1.5}\n")

    big = 2**53 + 1
    with open(directory / "bigints.csv", "w", encoding="utf-8") as handle:
        handle.write("g,k\n")
        for i in range(200):
            handle.write(f"{i % 3},{big + i}\n")

    with open(directory / "orders.json", "w", encoding="utf-8") as handle:
        for i in range(180):
            record = {
                "okey": i,
                "total": round(i * 2.5, 2),
                "origin": {"country": "CH" if i % 2 else "US"},
                "lines": [
                    {"item": j, "qty": j + 1} for j in range(i % 4)
                ],
            }
            handle.write(json.dumps(record) + "\n")

    write_row_table(
        str(directory / "rows.bin"),
        {"rid": np.arange(200, dtype=np.int64)},
        t.make_schema({"rid": "int"}),
    )

    with open(directory / "empty.csv", "w", encoding="utf-8") as handle:
        handle.write("id,v\n")

    return str(directory)


def _make_engine(workload_dir: str, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(
        enable_caching=False,
        enable_codegen=False,
        vectorized_batch_size=BATCH_SIZE,
        **kwargs,
    )
    engine.register_csv(
        "sailors", os.path.join(workload_dir, "sailors.csv"), schema=SAILORS_SCHEMA
    )
    engine.register_binary_columns(
        "ships", os.path.join(workload_dir, "ships_columns")
    )
    engine.register_json(
        "nulls", os.path.join(workload_dir, "nulls.json"), schema=NULLS_SCHEMA
    )
    engine.register_csv(
        "nanvals",
        os.path.join(workload_dir, "nanvals.csv"),
        schema=t.make_schema({"id": "int", "val": "float"}),
    )
    engine.register_csv(
        "bigints",
        os.path.join(workload_dir, "bigints.csv"),
        schema=t.make_schema({"g": "int", "k": "int"}),
    )
    engine.register_json(
        "orders", os.path.join(workload_dir, "orders.json"), schema=ORDERS_SCHEMA
    )
    engine.register_binary_rows("rowtable", os.path.join(workload_dir, "rows.bin"))
    engine.register_csv(
        "empty",
        os.path.join(workload_dir, "empty.csv"),
        schema=t.make_schema({"id": "int", "v": "int"}),
    )
    return engine


@pytest.fixture(scope="module")
def volcano_engine(workload_dir):
    return _make_engine(workload_dir, enable_vectorized=False)


@pytest.fixture(scope="module")
def serial_engine(workload_dir):
    return _make_engine(workload_dir)


@pytest.fixture(scope="module")
def parallel_engine(workload_dir):
    return _make_engine(workload_dir, parallel_workers=4)


def _assert_rows_match(actual, expected, query="", ordered=True):
    """Row equality, with float cells compared to 1e-12 relative tolerance
    (the parallel merge reassociates float additions across morsels);
    everything else must be identical.  ``ordered=False`` compares as
    multisets — the Volcano interpreter's row order legitimately differs
    from the batch tiers' (first-seen vs lexicographic group order).
    """
    assert len(actual) == len(expected), (query, len(actual), len(expected))
    if not ordered:
        actual = sorted(actual, key=repr)
        expected = sorted(expected, key=repr)
    for row_index, (left, right) in enumerate(zip(actual, expected)):
        assert len(left) == len(right), (query, row_index)
        for a, b in zip(left, right):
            if isinstance(a, float) and isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) or (
                    math.isnan(a) and math.isnan(b)
                ), (query, row_index, a, b)
            else:
                assert a == b, (query, row_index, a, b)


DIFFERENTIAL_QUERIES = [
    # Selections, projections, ORDER BY, LIMIT.
    "SELECT sid, age FROM sailors WHERE rating >= 7 ORDER BY sid LIMIT 9",
    "SELECT sid, sname FROM sailors WHERE age < 30 ORDER BY sid DESC",
    "SELECT 7 AS c FROM sailors WHERE rating > 7",
    # Empty morsels: the filter keeps only the first few rows, so every
    # later morsel produces nothing.
    "SELECT sid FROM sailors WHERE sid < 3",
    # No morsel survives at all.
    "SELECT sid FROM sailors WHERE rating > 1000",
    # Global aggregates (partial accumulators + ordered merge).
    "SELECT COUNT(*) FROM sailors WHERE rating > 4",
    "SELECT COUNT(*), SUM(age), MIN(age), MAX(age) FROM sailors",
    "SELECT SUM(age) / COUNT(*) FROM sailors WHERE rating < 9",
    "SELECT MAX(tons), MIN(built) FROM ships WHERE built >= 1990",
    # Group-by (partial grouping + grouped merge), including aggregate
    # arithmetic in the heads.
    "SELECT rating, COUNT(*), MAX(age) FROM sailors GROUP BY rating",
    "SELECT sname, COUNT(*) FROM sailors GROUP BY sname ORDER BY sname",
    "SELECT built, SUM(tons) / COUNT(*) FROM ships GROUP BY built",
    "SELECT rating, MAX(age) > 30 AND MIN(age) > 18 FROM sailors GROUP BY rating",
    # Joins across formats (shared build side, morsel-parallel probe).
    "SELECT COUNT(*) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.rating > 2",
    "SELECT SUM(h.tons) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.age < 40 AND h.built > 1985",
    "SELECT s.rating, COUNT(*) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "GROUP BY s.rating",
    # Empty build side: produces nothing without demoting the tier.
    "SELECT s.sid, h.tons FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.rating > 1000",
    # Nulls and NaN: missing values must not qualify predicates and must be
    # skipped by aggregates, in every tier.
    "SELECT COUNT(*) FROM nulls WHERE val > 10",
    "SELECT COUNT(*) FROM nulls WHERE val != 4",
    "SELECT COUNT(*) FROM nulls WHERE tag = 't1'",
    "SELECT SUM(val), MIN(val), MAX(val) FROM nulls WHERE id >= 0",
    "SELECT MAX(val), MIN(val) FROM nulls WHERE id < 1",
    "SELECT id, val FROM nulls ORDER BY val",
    "SELECT id FROM nulls WHERE val",
    "SELECT SUM(val), MIN(val), MAX(val) FROM nanvals",
    "SELECT COUNT(*) FROM nanvals WHERE val != 1.5",
    "SELECT id FROM nanvals WHERE NOT val",
    # Big ints: exact sums/extrema above 2**53 across morsel merges.
    "SELECT g, MAX(k), SUM(k) FROM bigints GROUP BY g",
    "SELECT SUM(k) FROM bigints",
    # Nested JSON: unnest runs inside every worker.
    "SELECT origin.country, COUNT(*) FROM orders GROUP BY origin.country",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield count",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
    # Empty dataset (zero morsels).
    "SELECT COUNT(*) FROM empty",
    "SELECT id FROM empty WHERE v > 0",
    # Unsplittable binary-row scan (never fans out).
    "SELECT rid FROM rowtable WHERE rid > 150 ORDER BY rid DESC LIMIT 7",
]


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_three_tiers_return_identical_rows(
    volcano_engine, serial_engine, parallel_engine, query
):
    reference = volcano_engine.query(query)
    assert reference.tier == "volcano"
    serial = serial_engine.query(query)
    assert serial.tier in ("vectorized", "volcano")
    parallel = parallel_engine.query(query)
    assert parallel.tier == serial.tier
    # Volcano orders rows first-seen; the batch tiers may differ — multiset.
    _assert_rows_match(serial.rows, reference.rows, query, ordered=False)
    # A parallel run must reproduce the serial run's order exactly.
    _assert_rows_match(parallel.rows, serial.rows, query)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_worker_counts_return_identical_rows(workload_dir, serial_engine, workers):
    engine = _make_engine(workload_dir, parallel_workers=workers)
    for query in DIFFERENTIAL_QUERIES:
        expected = serial_engine.query(query)
        actual = engine.query(query)
        _assert_rows_match(actual.rows, expected.rows, query)


def test_integer_results_are_bit_identical_to_serial(workload_dir, serial_engine):
    """For integer data the ordered morsel merge reproduces the serial rows
    exactly — including row order — not merely as a multiset."""
    engine = _make_engine(workload_dir, parallel_workers=4)
    for query in (
        "SELECT sid, rating FROM sailors WHERE rating >= 5",
        "SELECT rating, COUNT(*) FROM sailors GROUP BY rating",
        "SELECT s.sid, h.shid FROM sailors s JOIN ships h ON s.sid = h.owner",
        "SELECT g, MAX(k), SUM(k) FROM bigints GROUP BY g",
    ):
        actual = engine.query(query)
        assert actual.tier == "vectorized", query
        assert actual.profile.morsels_dispatched > 1, query
        assert actual.rows == serial_engine.query(query).rows, query


def test_repeated_parallel_runs_are_deterministic(workload_dir):
    engine = _make_engine(workload_dir, parallel_workers=8)
    queries = [
        "SELECT s.rating, SUM(h.tons), COUNT(*) FROM sailors s "
        "JOIN ships h ON s.sid = h.owner GROUP BY s.rating",
        "SELECT sid, age FROM sailors WHERE rating > 3",
        "SELECT SUM(val), MAX(val) FROM nulls",
    ]
    for query in queries:
        runs = [engine.query(query).rows for _ in range(4)]
        assert runs[0] == runs[1] == runs[2] == runs[3], query


def test_parallel_tier_attribution_and_profile(parallel_engine):
    result = parallel_engine.query("SELECT COUNT(*) FROM sailors WHERE rating > 4")
    assert result.tier == "vectorized"
    profile = result.profile
    assert profile.execution_tier == "vectorized"
    assert profile.parallel_workers == 4
    assert profile.morsels_dispatched > 1
    assert profile.rows_scanned == SAILOR_COUNT
    assert profile.batches_processed >= profile.morsels_dispatched


def test_unsplittable_scan_falls_back_to_serial_vectorized(parallel_engine):
    # The binary row plug-in only has the per-tuple batch shim, so its scans
    # never fan out: they run in the calling thread.
    result = parallel_engine.query("SELECT COUNT(*) FROM rowtable WHERE rid < 50")
    assert result.tier == "vectorized"
    assert result.profile.morsels_dispatched == 0
    assert result.profile.parallel_workers == 0
    assert result.rows == [(50,)]


def test_single_morsel_input_falls_back_to_serial(workload_dir):
    engine = _make_engine(workload_dir, parallel_workers=4)
    engine.vectorized_batch_size = 4096  # one morsel covers all 600 rows
    result = engine.query("SELECT COUNT(*) FROM sailors")
    assert result.tier == "vectorized"
    assert result.profile.morsels_dispatched == 0
    assert result.rows == [(SAILOR_COUNT,)]


#: Profile counters a run without fan-out reports exactly like one worker.
SERIAL_PROFILE_FIELDS = (
    "output_rows",
    "groups_built",
    "rows_sorted",
    "batches_processed",
    "sort_strategy",
    "parallel_workers",
    "morsels_dispatched",
    "morsels_stolen",
)


@pytest.mark.parametrize(
    "query,batch_size",
    [
        ("SELECT rid FROM rowtable WHERE rid > 20 ORDER BY rid DESC", BATCH_SIZE),
        ("SELECT rid, COUNT(*) FROM rowtable GROUP BY rid", BATCH_SIZE),
        ("SELECT sid, age FROM sailors ORDER BY age LIMIT 9", 4096),
        ("SELECT rating, AVG(age) FROM sailors GROUP BY rating", 4096),
        ("SELECT COUNT(*), SUM(age) FROM sailors", 4096),
    ],
)
def test_inputs_that_do_not_fan_out_match_one_worker(workload_dir, query, batch_size):
    """An unsplittable scan and a single-morsel input at 8 workers run the
    serial path: same rows and the same profile counters as 1 worker."""
    profiles = {}
    rows = {}
    for workers in (1, 8):
        engine = _make_engine(workload_dir, parallel_workers=workers)
        engine.vectorized_batch_size = batch_size
        result = engine.query(query)
        assert result.tier == "vectorized", (query, workers)
        assert result.profile.morsels_dispatched == 0, (query, workers)
        profiles[workers] = result.profile
        rows[workers] = result.rows
    assert rows[8] == rows[1], query
    for name in SERIAL_PROFILE_FIELDS:
        assert getattr(profiles[8], name) == getattr(profiles[1], name), name


def test_null_group_keys_fall_back_to_volcano(volcano_engine, parallel_engine):
    query = "SELECT tag, COUNT(*) FROM nulls GROUP BY tag"
    reference = volcano_engine.query(query)
    result = parallel_engine.query(query)
    assert result.tier == "volcano"
    assert sorted(result.rows, key=repr) == sorted(reference.rows, key=repr)


def test_parallel_workers_flag_defaults_to_serial(workload_dir):
    engine = _make_engine(workload_dir)  # no parallel_workers argument
    assert engine.parallel_workers == 1
    result = engine.query("SELECT COUNT(*) FROM sailors")
    assert result.tier == "vectorized"
    assert result.profile.morsels_dispatched == 0
    assert result.profile.parallel_workers == 0


# ---------------------------------------------------------------------------
# Adaptive caching from the batch tiers
# ---------------------------------------------------------------------------


def _caching_engine(workload_dir: str, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(
        enable_codegen=False,
        enable_caching=True,
        vectorized_batch_size=BATCH_SIZE,
        **kwargs,
    )
    engine.register_csv(
        "sailors", os.path.join(workload_dir, "sailors.csv"), schema=SAILORS_SCHEMA
    )
    return engine


@pytest.mark.parametrize("workers", [1, 4])
def test_vectorized_tiers_populate_and_hit_the_cache(workload_dir, workers):
    engine = _caching_engine(workload_dir, parallel_workers=workers)
    query = "SELECT SUM(sid) FROM sailors WHERE rating > 2"
    first = engine.query(query)
    # The scan materialized its numeric columns into the adaptive cache.
    descriptions = {entry.description for entry in engine.cache_entries()}
    assert {"sailors.sid", "sailors.rating"} <= descriptions
    hits_before = engine.cache_stats.hits
    second = engine.query(query)
    assert engine.cache_stats.hits > hits_before
    assert second.profile.values_from_cache > 0
    assert second.rows == first.rows


def test_string_columns_respect_the_caching_policy(workload_dir):
    engine = _caching_engine(workload_dir)
    engine.query("SELECT sname FROM sailors WHERE rating > 8")
    descriptions = {entry.description for entry in engine.cache_entries()}
    # The default policy refuses variable-length strings from raw files.
    assert "sailors.sname" not in descriptions


def test_incomplete_scans_are_not_cached(workload_dir):
    engine = _caching_engine(workload_dir)
    # The inner join's build side is empty, so the probe-side scan never
    # runs; nothing incomplete may be admitted for the probe side's columns.
    engine.query(
        "SELECT s.sid, h.age FROM sailors s JOIN sailors h ON s.sid = h.sid "
        "WHERE h.rating > 1000 AND s.age > 0"
    )
    for entry in engine.cache_entries():
        assert len(entry.data) == SAILOR_COUNT, entry.description


# ---------------------------------------------------------------------------
# Morsel planning and the work-stealing scheduler
# ---------------------------------------------------------------------------


def test_plan_morsels_aligns_to_batches():
    morsels = plan_morsels(total_rows=1000, batch_size=64, num_workers=4)
    assert all(morsel.start % 64 == 0 for morsel in morsels)
    assert morsels[0].start == 0
    assert morsels[-1].stop == 1000
    for previous, current in zip(morsels, morsels[1:]):
        assert current.start == previous.stop
    assert len(morsels) >= 4


def test_plan_morsels_edge_cases():
    assert plan_morsels(0, 4096, 4) == []
    assert plan_morsels(10, 4096, 4) == [Morsel(0, 0, 10)]
    explicit = plan_morsels(100, 10, 2, morsel_rows=25)  # aligns up to 30
    assert [(m.start, m.stop) for m in explicit] == [
        (0, 30), (30, 60), (60, 90), (90, 100)
    ]


def test_work_stealing_queue_dispatches_everything_once():
    queue = WorkStealingQueue(list(range(10)), num_workers=3)
    seen = []
    # Worker 2 drains everything: its own block first, then steals.
    while True:
        task = queue.next_task(2)
        if task is None:
            break
        seen.append(task)
    assert sorted(index for index, _ in seen) == list(range(10))
    assert queue.dispatched == 10
    assert queue.stolen > 0
    assert queue.next_task(0) is None


def test_worker_pool_preserves_submission_order():
    pool = WorkerPool(num_workers=4)
    results = pool.run(list(range(50)), lambda item, worker: item * 2)
    assert results == [item * 2 for item in range(50)]


def test_worker_pool_propagates_errors():
    pool = WorkerPool(num_workers=4)

    def explode(item, worker):
        if item == 13:
            raise ValueError("boom")
        return item

    with pytest.raises(ValueError, match="boom"):
        pool.run(list(range(40)), explode)


def test_partition_parallel_table_build_matches_serial(workload_dir):
    engine = _make_engine(workload_dir, parallel_workers=4)
    executor = VectorizedExecutor(engine.catalog, engine.plugins, num_workers=4)
    rng = np.random.RandomState(11)
    keys = rng.randint(0, 5000, size=20000).astype(np.int64)
    parallel_table = executor._build_table(keys)
    serial_table = radix.build_radix_table(keys)
    assert parallel_table.build_size == serial_table.build_size
    assert parallel_table.num_partitions == serial_table.num_partitions
    for ours, theirs in zip(parallel_table.partitions, serial_table.partitions):
        assert np.array_equal(ours.sorted_keys, theirs.sorted_keys)
        assert np.array_equal(ours.original_positions, theirs.original_positions)


# ---------------------------------------------------------------------------
# scan_batch_ranges plug-in API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dataset,paths_requested",
    [
        ("sailors", [("sid",), ("age",), ("sname",)]),
        ("nulls", [("id",), ("val",)]),
        ("ships", [("shid",), ("tons",)]),
    ],
)
def test_scan_batch_ranges_matches_scan_batches(
    parallel_engine, dataset, paths_requested
):
    registered = parallel_engine.catalog.get(dataset)
    plugin = parallel_engine.plugins[registered.format]
    assert plugin.supports_scan_ranges
    total = plugin.scan_row_count(registered)
    assert total is not None and total > 0
    full = plugin.scan_columns(registered, paths_requested)
    mid = total // 2
    pieces = list(
        plugin.scan_batch_ranges(registered, paths_requested, 0, mid, batch_size=17)
    ) + list(
        plugin.scan_batch_ranges(registered, paths_requested, mid, total, batch_size=17)
    )
    assert sum(piece.count for piece in pieces) == total
    oids = np.concatenate([piece.oids for piece in pieces])
    assert oids.tolist() == list(range(total))
    for path in paths_requested:
        merged = np.concatenate([piece.column(tuple(path)) for piece in pieces])
        reference = full.column(tuple(path))
        assert len(merged) == len(reference), path
        for a, b in zip(merged, reference):
            if isinstance(a, float) and isinstance(b, float) and \
                    math.isnan(a) and math.isnan(b):
                continue
            assert a == b, path


def test_scan_batch_ranges_clamps_to_row_count(parallel_engine):
    registered = parallel_engine.catalog.get("sailors")
    plugin = parallel_engine.plugins[registered.format]
    pieces = list(
        plugin.scan_batch_ranges(
            registered, [("sid",)], SAILOR_COUNT - 5, SAILOR_COUNT + 100, batch_size=3
        )
    )
    assert sum(piece.count for piece in pieces) == 5


def test_unsplittable_plugin_reports_no_ranges(parallel_engine):
    registered = parallel_engine.catalog.get("rowtable")
    plugin = parallel_engine.plugins[registered.format]
    assert not plugin.supports_scan_ranges
    assert plugin.scan_row_count(registered) is None
    from repro.errors import PluginError

    with pytest.raises(PluginError, match="range"):
        list(plugin.scan_batch_ranges(registered, [("rid",)], 0, 10))
