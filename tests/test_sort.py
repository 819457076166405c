"""Tests for the columnar sort subsystem (ORDER BY / LIMIT as plan + kernels).

Covers:

* the :class:`~repro.core.physical.PhysSort` plan root (placement,
  fingerprints, ``explain()`` strategy report),
* a differential ORDER BY / LIMIT suite across every execution tier
  (codegen / vectorized at 1 and 4 workers / volcano): NaN, None, strings,
  multi-key ascending/descending mixes, ties (stability), ``LIMIT 0`` and
  ``LIMIT`` beyond the row count — results must be identical tier-to-tier,
* parallel per-morsel sort + k-way merge determinism at 1/2/8 workers,
* the streaming top-K accumulator and the k-way merge kernels,
* regression tests for the two satellite bugfixes: uncomparable mixed-type
  object sorts raise a clear :class:`ExecutionError`, and a literal negative
  ``LIMIT`` fails exactly like a negative ``LIMIT ?`` binding.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import sort as sortlib
from repro.core.physical import PhysSort
from repro.errors import ExecutionError, ProteusError

from tests.conftest import PARALLEL_CONFIG, make_engine, served_tier

#: One engine configuration per execution tier (mirrors tests/test_prepared).
TIER_CONFIGS = [
    ("codegen", {}),
    (
        PARALLEL_CONFIG,
        {
            "enable_codegen": False,
            "parallel_workers": 4,
            "vectorized_batch_size": 8,
        },
    ),
    ("vectorized", {"enable_codegen": False}),
    ("volcano", {"enable_codegen": False, "enable_vectorized": False}),
]


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

MESSY_COUNT = 90


def messy_rows() -> list[dict]:
    """Floats with missing values, strings, and heavily tied keys."""
    rows = []
    for i in range(MESSY_COUNT):
        row: dict = {"id": i, "grp": i % 5, "tag": f"t{(i * 7) % 11:02d}"}
        if i % 4 != 3:  # every fourth value is missing
            row["val"] = round((i * 37) % 50 + i / 100.0, 2)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def messy_path(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("sort_datasets")
    path = directory / "messy.json"
    with open(path, "w", encoding="utf-8") as handle:
        for row in messy_rows():
            handle.write(json.dumps(row) + "\n")
    return str(path)


def messy_engine(messy_path: str, **config) -> ProteusEngine:
    engine = ProteusEngine(enable_caching=False, **config)
    engine.register_json("messy", messy_path)
    return engine


# ---------------------------------------------------------------------------
# PhysSort placement, fingerprints, explain
# ---------------------------------------------------------------------------


def test_planner_places_sort_root(paths):
    engine = make_engine(paths, enable_caching=False)
    prepared = engine.prepare("SELECT id FROM items_bin ORDER BY id DESC LIMIT 7")
    assert isinstance(prepared.plan, PhysSort)
    assert prepared.plan.keys == [("id", False)]
    assert prepared.plan.limit == 7
    plain = engine.prepare("SELECT id FROM items_bin")
    assert not isinstance(plain.plan, PhysSort)


def test_sort_is_fingerprinted(paths):
    engine = make_engine(paths, enable_caching=False)
    a = engine.prepare("SELECT id FROM items_bin ORDER BY id").plan
    b = engine.prepare("SELECT id FROM items_bin ORDER BY id DESC").plan
    c = engine.prepare("SELECT id FROM items_bin ORDER BY id LIMIT 3").plan
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    # A parameterized LIMIT stays abstract: one fingerprint for every binding.
    d = engine.prepare("SELECT id FROM items_bin ORDER BY id LIMIT ?").plan
    e = engine.prepare("SELECT id FROM items_bin ORDER BY id LIMIT ?").plan
    assert d.fingerprint() == e.fingerprint()


def test_order_by_variants_share_one_compiled_program(paths):
    # The generated program covers the child plan; LIMIT variations of the
    # same shape must not compile twice.
    engine = make_engine(paths, enable_caching=False)
    engine.query("SELECT id FROM items_bin ORDER BY id LIMIT 3")
    engine.query("SELECT id FROM items_bin ORDER BY id LIMIT 9")
    engine.query("SELECT id FROM items_bin ORDER BY id")
    assert len(engine._compiled) == 1


def test_explain_reports_sort_strategy(paths):
    engine = make_engine(paths, enable_caching=False)
    text = engine.explain("SELECT id FROM items_bin ORDER BY id LIMIT 5")
    assert "Sort(id ASC, limit=5)" in text
    assert "== sort strategy ==" in text
    assert "topk" in text
    text = engine.explain("SELECT id FROM items_bin ORDER BY id")
    assert "[strategy: lexsort]" in text


# ---------------------------------------------------------------------------
# Differential suite: identical results on every tier
# ---------------------------------------------------------------------------

DIFFERENTIAL_QUERIES = [
    # NaN / None keys, both directions (NULLS LAST in both).
    "SELECT id, val FROM messy ORDER BY val",
    "SELECT id, val FROM messy ORDER BY val DESC",
    "SELECT id, val FROM messy ORDER BY val DESC LIMIT 10",
    # String keys, both directions.
    "SELECT id, tag FROM messy ORDER BY tag",
    "SELECT id, tag FROM messy ORDER BY tag DESC LIMIT 7",
    # Multi-key ascending/descending mixes.
    "SELECT grp, val, id FROM messy ORDER BY grp, val DESC",
    "SELECT grp, tag, id FROM messy ORDER BY grp DESC, tag",
    "SELECT grp, val, id FROM messy ORDER BY grp DESC, val DESC LIMIT 12",
    # Ties: grp has 18 duplicates per value — stability must keep scan order.
    "SELECT grp, id FROM messy ORDER BY grp",
    "SELECT grp, id FROM messy ORDER BY grp DESC LIMIT 25",
    # LIMIT edge cases.
    "SELECT id FROM messy ORDER BY id LIMIT 0",
    "SELECT id FROM messy ORDER BY id DESC LIMIT 100000",
    "SELECT id FROM messy LIMIT 9",
    "SELECT id FROM messy LIMIT 0",
    # Sorting grouped output.
    "SELECT grp, COUNT(*) AS n FROM messy GROUP BY grp ORDER BY grp DESC",
    # MAX (not SUM): partial float sums legitimately differ in the last ulp
    # when the scan fans out over workers — that is about aggregation, not
    # ordering.
    "SELECT tag, MAX(val) AS m FROM messy GROUP BY tag ORDER BY tag LIMIT 4",
]


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_order_by_identical_across_tiers(messy_path, query):
    reference = None
    for tier, config in TIER_CONFIGS:
        engine = messy_engine(messy_path, **config)
        result = engine.query(query)
        rows = result.rows
        if reference is None:
            reference = rows
        else:
            assert rows == reference, (tier, query)


def test_expected_order_with_missing_values(messy_path):
    # Anchor the shared semantics (not just tier agreement): ascending and
    # descending both put missing values last, stably.
    engine = messy_engine(messy_path)
    ascending = engine.query("SELECT id, val FROM messy ORDER BY val").rows
    values = [row["val"] for row in messy_rows() if "val" in row]
    missing_ids = [row["id"] for row in messy_rows() if "val" not in row]
    assert [v for _, v in ascending[: len(values)]] == sorted(values)
    assert [i for i, v in ascending if v is None] == missing_ids
    descending = engine.query("SELECT id, val FROM messy ORDER BY val DESC").rows
    assert [v for _, v in descending[: len(values)]] == sorted(values, reverse=True)
    assert [i for i, v in descending if v is None] == missing_ids


def test_stability_on_ties(messy_path):
    engine = messy_engine(messy_path)
    rows = engine.query("SELECT grp, id FROM messy ORDER BY grp").rows
    for value in range(5):
        ids = [i for g, i in rows if g == value]
        assert ids == sorted(ids)  # scan order preserved within each tie


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_sort_strategy_recorded(messy_path, tier, config):
    engine = messy_engine(messy_path, **config)
    full = engine.query("SELECT id, val FROM messy ORDER BY val DESC")
    assert full.tier == served_tier(tier)
    expected_full = {
        PARALLEL_CONFIG: sortlib.STRATEGY_PARALLEL_MERGE,
    }.get(tier, sortlib.STRATEGY_LEXSORT)
    assert full.profile.sort_strategy == expected_full
    assert full.profile.rows_sorted >= MESSY_COUNT
    topk = engine.query("SELECT id, val FROM messy ORDER BY val LIMIT 3")
    expected_topk = {
        PARALLEL_CONFIG: sortlib.STRATEGY_PARALLEL_MERGE,
    }.get(tier, sortlib.STRATEGY_TOPK)
    assert topk.profile.sort_strategy == expected_topk
    unsorted = engine.query("SELECT id FROM messy")
    assert unsorted.profile.sort_strategy is None


# ---------------------------------------------------------------------------
# Parallel per-morsel sort + merge: bit-identical at any worker count
# ---------------------------------------------------------------------------

PARALLEL_QUERIES = [
    "SELECT id, val FROM messy ORDER BY val",
    "SELECT id, val FROM messy ORDER BY val DESC LIMIT 8",
    "SELECT grp, id FROM messy ORDER BY grp",  # ties across morsels
    "SELECT grp, val, id FROM messy ORDER BY grp, val DESC",
    "SELECT id, tag FROM messy ORDER BY tag DESC",
]


@pytest.mark.parametrize("query", PARALLEL_QUERIES)
def test_parallel_sort_identical_at_any_worker_count(messy_path, query):
    reference = messy_engine(
        messy_path, enable_codegen=False, vectorized_batch_size=8
    ).query(query)
    assert reference.tier == "vectorized"
    for workers in (1, 2, 8):
        engine = messy_engine(
            messy_path,
            enable_codegen=False,
            parallel_workers=workers,
            vectorized_batch_size=8,
        )
        result = engine.query(query)
        assert result.tier == "vectorized", (workers, query)
        fanned_out = result.profile.morsels_dispatched > 1
        assert fanned_out == (workers > 1), (workers, query)
        assert result.rows == reference.rows, (workers, query)
        for name in reference.columns:
            np.testing.assert_array_equal(
                np.asarray(result.column_array(name)),
                np.asarray(reference.column_array(name)),
            )


# ---------------------------------------------------------------------------
# Satellite: uncomparable mixed-type object sorts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_path(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("sort_mixed")
    path = directory / "mixed.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i, value in enumerate([1, "one", 2, "two", 3]):
            handle.write(json.dumps({"id": i, "m": value}) + "\n")
    return str(path)


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_mixed_type_sort_raises_clear_error(mixed_path, tier, config):
    engine = ProteusEngine(enable_caching=False, **config)
    engine.register_json("mixed", mixed_path)
    with pytest.raises(ExecutionError, match=r"'m'.*int and str"):
        engine.query("SELECT id, m FROM mixed ORDER BY m")
    with pytest.raises(ExecutionError, match=r"'m'.*int and str"):
        engine.query("SELECT id, m FROM mixed ORDER BY m DESC LIMIT 2")


def test_uniform_object_column_still_sorts(mixed_path):
    engine = ProteusEngine(enable_caching=False)
    engine.register_json("mixed", mixed_path)
    result = engine.query("SELECT id, m FROM mixed WHERE id < 2 ORDER BY id")
    assert result.rows == [(0, 1), (1, "one")]


# ---------------------------------------------------------------------------
# Satellite: negative LIMIT handled identically on both paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_negative_limit_rejected_identically(paths, tier, config):
    engine = make_engine(paths, enable_caching=False, **config)
    with pytest.raises(ProteusError, match="LIMIT must not be negative, got -2"):
        engine.query("SELECT id FROM items_bin ORDER BY id LIMIT -2")
    prepared = engine.prepare("SELECT id FROM items_bin ORDER BY id LIMIT ?")
    with pytest.raises(ProteusError, match="must not be negative, got -2"):
        prepared.execute(-2)
    # Validation happens before any execution work on both paths.
    with pytest.raises(ProteusError, match="must not be negative"):
        engine.query("SELECT id FROM items_bin LIMIT ?", -1)
    with pytest.raises(ProteusError, match="LIMIT must not be negative"):
        engine.query("SELECT id FROM items_bin LIMIT -1")


def test_zero_limit_still_allowed(paths):
    engine = make_engine(paths, enable_caching=False)
    assert engine.query("SELECT id FROM items_bin ORDER BY id LIMIT 0").rows == []
    assert engine.query("SELECT id FROM items_bin LIMIT ?", 0).rows == []


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_zero_limit_keeps_column_dtypes(paths, tier, config):
    # An empty ORDER BY ... LIMIT 0 result must keep the columns' real
    # dtypes on the columnar tiers (the streaming top-K and the parallel
    # merge must not fabricate float64 buffers).  Volcano's list-backed
    # buffers have no dtype to preserve — it only guarantees emptiness.
    engine = make_engine(paths, enable_caching=False, **config)
    result = engine.query(
        "SELECT id, category FROM items_bin ORDER BY id LIMIT 0"
    )
    assert result.tier == served_tier(tier)
    assert len(result) == 0
    if tier != "volcano":
        assert result.column_array("id").dtype.kind == "i"
        assert result.column_array("category").dtype == object


# ---------------------------------------------------------------------------
# Kernel units: streaming top-K and the k-way merge
# ---------------------------------------------------------------------------


def test_topk_accumulator_matches_full_sort():
    rng = np.random.RandomState(3)
    accumulator = sortlib.TopKAccumulator(["x", "id"], [("x", True)], 11)
    chunks = []
    base = 0
    for _ in range(40):  # enough pushes to trigger internal compaction
        xs = rng.uniform(0, 1000, 500)
        xs[rng.randint(0, 500, 20)] = np.nan  # missing values mid-stream
        ids = np.arange(base, base + 500)
        base += 500
        chunks.append((xs, ids))
        accumulator.push({"x": xs, "id": ids}, 500)
    count, columns, strategy = accumulator.finish()
    assert strategy == sortlib.STRATEGY_TOPK
    assert count == 11
    all_x = np.concatenate([x for x, _ in chunks])
    all_id = np.concatenate([i for _, i in chunks])
    order = np.lexsort((all_id, np.nan_to_num(all_x), np.isnan(all_x)))
    np.testing.assert_array_equal(columns["id"], all_id[order][:11])


def test_merge_sorted_runs_matches_stable_sort():
    rng = np.random.RandomState(5)
    runs = []
    offset = 0
    for length in (13, 1, 29, 7, 22):
        xs = np.sort(rng.randint(0, 9, length).astype(np.int64))
        runs.append((length, {"x": xs, "id": np.arange(offset, offset + length)}))
        offset += length
    count, columns, strategy = sortlib.merge_sorted_runs(
        ["x", "id"], runs, [("x", True)], None
    )
    assert strategy == sortlib.STRATEGY_PARALLEL_MERGE
    concat_x = np.concatenate([run[1]["x"] for run in runs])
    concat_id = np.concatenate([run[1]["id"] for run in runs])
    order = np.argsort(concat_x, kind="stable")
    np.testing.assert_array_equal(columns["x"], concat_x[order])
    np.testing.assert_array_equal(columns["id"], concat_id[order])
    assert count == len(concat_x)


def test_merge_sorted_runs_descending_with_limit():
    runs = []
    for start in (0, 10, 20):
        xs = np.array([9.0, 5.0, 1.0]) + start
        runs.append((3, {"x": np.sort(xs)[::-1].copy()}))
    # Runs are descending-sorted; merge with the matching key direction.
    count, columns, strategy = sortlib.merge_sorted_runs(
        ["x"], runs, [("x", False)], 4
    )
    assert strategy == sortlib.STRATEGY_PARALLEL_MERGE
    assert columns["x"].tolist() == [29.0, 25.0, 21.0, 19.0]
    assert count == 4


def test_parallel_string_sort_with_single_surviving_morsel(messy_path):
    # String-key runs are handed to the root unsorted (their factorization
    # codes are run-local, so the root re-sorts anyway); the re-sort must
    # happen even when only ONE morsel produces rows.
    serial = messy_engine(
        messy_path, enable_codegen=False, vectorized_batch_size=8
    ).query("SELECT tag, id FROM messy WHERE id < 10 ORDER BY tag")
    parallel = messy_engine(
        messy_path,
        enable_codegen=False,
        parallel_workers=4,
        vectorized_batch_size=8,
    ).query("SELECT tag, id FROM messy WHERE id < 10 ORDER BY tag")
    assert parallel.tier == "vectorized"
    assert parallel.profile.morsels_dispatched > 1
    assert parallel.rows == serial.rows
    tags = [tag for tag, _ in parallel.rows]
    assert tags == sorted(tags)


def test_parallel_merge_with_mixed_dtype_runs(tmp_path):
    # The JSON plugin materializes a nullable int column per scan range:
    # ranges containing a null become float64 (NaN-encoded), ranges without
    # become int64.  The k-way merge must compare such runs in one key
    # space — the int ``~x`` and float ``-x`` descending encodings are
    # mutually incomparable.
    path = tmp_path / "mixed_runs.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(400):
            row: dict = {"id": i}
            if not (i >= 200 and i % 7 == 0):  # nulls only in the back half
                row["x"] = (i * 13) % 97
            handle.write(json.dumps(row) + "\n")
    serial = ProteusEngine(enable_caching=False, enable_codegen=False)
    serial.register_json("mixed_runs", str(path))
    for query in (
        "SELECT id, x FROM mixed_runs ORDER BY x DESC",
        "SELECT id, x FROM mixed_runs ORDER BY x",
        "SELECT id, x FROM mixed_runs ORDER BY x DESC LIMIT 10",
    ):
        expected = serial.query(query).rows
        for workers in (2, 8):
            parallel = ProteusEngine(
                enable_caching=False,
                enable_codegen=False,
                parallel_workers=workers,
                vectorized_batch_size=32,
            )
            parallel.register_json("mixed_runs", str(path))
            result = parallel.query(query)
            assert result.tier == "vectorized"
            assert result.profile.morsels_dispatched > 1
            assert result.rows == expected, (query, workers)


def test_pure_limit_output_rows_consistent_across_batch_tiers(messy_path):
    serial = messy_engine(
        messy_path, enable_codegen=False, vectorized_batch_size=8
    ).query("SELECT id FROM messy LIMIT 5")
    parallel = messy_engine(
        messy_path,
        enable_codegen=False,
        parallel_workers=4,
        vectorized_batch_size=8,
    ).query("SELECT id FROM messy LIMIT 5")
    assert parallel.tier == "vectorized"
    assert parallel.profile.morsels_dispatched > 1
    assert serial.profile.output_rows == 5
    assert parallel.profile.output_rows == 5
    # ORDER BY ... LIMIT 0 also reports zero emitted rows on both tiers.
    for engine_result in (
        messy_engine(
            messy_path, enable_codegen=False, vectorized_batch_size=8
        ).query("SELECT id, val FROM messy ORDER BY val LIMIT 0"),
        messy_engine(
            messy_path,
            enable_codegen=False,
            parallel_workers=4,
            vectorized_batch_size=8,
        ).query("SELECT id, val FROM messy ORDER BY val LIMIT 0"),
    ):
        assert len(engine_result) == 0
        assert engine_result.profile.output_rows == 0


def test_streaming_topk_used_by_vectorized_tier(messy_path):
    engine = messy_engine(
        messy_path, enable_codegen=False, vectorized_batch_size=8
    )
    result = engine.query("SELECT id, val FROM messy ORDER BY val LIMIT 5")
    assert result.tier == "vectorized"
    assert result.profile.sort_strategy == sortlib.STRATEGY_TOPK
    # The streaming accumulator sorts per batch, so it counts more sorted
    # rows than the result size but never materializes the full input.
    assert result.profile.rows_sorted >= MESSY_COUNT // 2


def test_limit_only_stops_scanning_early(paths):
    engine = make_engine(paths, enable_caching=False, enable_codegen=False,
                         vectorized_batch_size=8)
    result = engine.query("SELECT id FROM items_bin LIMIT 8")
    assert len(result) == 8
    # 120 input rows, batches of 8: the scan must stop after the first batch.
    assert result.profile.rows_scanned <= 16
