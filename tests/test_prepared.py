"""Tests for Engine API v2: prepared parameterized queries + lazy ResultSet.

Covers:

* parsing of ``?`` positional and ``:name`` named placeholders in both
  frontends (including ``LIMIT ?``),
* prepared executions matching literal queries on every execution tier
  (the vectorized tier at one and at four workers),
  with exactly one code generation across different parameter values,
* the lazy columnar :class:`ResultSet` (``column_array`` with no rows
  round-trip, incremental ``fetch_batches``, lazy ``rows``),
* parameter-binding errors, ``executemany``, the parameterized join
  build-side cache,
* invalidation of outstanding :class:`PreparedQuery` objects by
  re-registration / unregistration,
* the NULLS LAST ordering fix,
* ``explain()``'s tier-cascade report.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import types as t
from repro.core.comprehension_parser import parse_comprehension
from repro.core.engine import ResultSet, _apply_order_and_limit_columns
from repro.core.expressions import Parameter
from repro.core.sql_parser import parse_sql
from repro.errors import ExecutionError, ProteusError
from tests.conftest import PARALLEL_CONFIG, expected_items, make_engine, served_tier


# -- parsing -----------------------------------------------------------------


def test_sql_positional_and_named_parameters():
    comp = parse_sql("SELECT id FROM items WHERE qty < ? AND price > :p AND id != ?")
    assert comp.parameters() == [0, "p", 1]


def test_comprehension_parameters():
    comp = parse_comprehension(
        "for { x <- Data, x.qty < ?, x.price > :lo } yield sum x.price"
    )
    assert comp.parameters() == [0, "lo"]


def test_limit_parameter():
    comp = parse_sql("SELECT id FROM items ORDER BY id LIMIT :n")
    assert isinstance(comp.limit, Parameter)
    assert comp.parameters() == ["n"]


def test_parameter_fingerprint_abstracts_value():
    a = parse_sql("SELECT id FROM items WHERE qty < ?")
    b = parse_sql("SELECT id FROM items WHERE qty < ?")
    c = parse_sql("SELECT id FROM items WHERE qty < 5")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# -- differential correctness across tiers -----------------------------------


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


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_prepared_matches_literal_on_every_tier(paths, tier, config):
    engine = make_engine(paths, enable_caching=False, **config)
    prepared = engine.prepare(
        "SELECT COUNT(*) AS n, SUM(price) AS total FROM items_csv WHERE qty < ?"
    )
    for threshold in (5, 3, 8):
        bound = prepared.execute(threshold)
        literal = engine.query(
            f"SELECT COUNT(*) AS n, SUM(price) AS total FROM items_csv "
            f"WHERE qty < {threshold}"
        )
        assert bound.rows == literal.rows, (tier, threshold)
        assert bound.tier == served_tier(tier)


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_prepared_group_by_with_parameter_in_head(paths, tier, config):
    engine = make_engine(paths, enable_caching=False, **config)
    prepared = engine.prepare(
        "SELECT qty, SUM(price) * :rate AS scaled FROM items_json "
        "GROUP BY qty ORDER BY qty"
    )
    for rate in (1.0, 2.5):
        result = prepared.execute(rate=rate)
        rows = expected_items()
        assert len(result.rows) == 10
        for qty, scaled in result.rows:
            expected = sum(r["price"] for r in rows if r["qty"] == qty) * rate
            assert scaled == pytest.approx(expected), (tier, rate)


def test_prepared_join_with_parameterized_build_side(paths):
    # The build side of the join is filtered by the parameter; categories all
    # have the same cardinality, so a stale cached build table (keyed without
    # the bound value) would go unnoticed by size checks and return the
    # previous category's rows.  Caching is ON to exercise that path.
    engine = make_engine(paths, enable_caching=True)
    prepared = engine.prepare(
        "SELECT SUM(i.id) FROM items_bin i JOIN items_csv c ON i.id = c.id "
        "WHERE i.category = :cat"
    )
    for category in ("cat1", "cat2", "cat1"):
        expected = sum(
            r["id"] for r in expected_items() if r["category"] == category
        )
        assert prepared.execute(cat=category).scalar() == expected, category


def test_parameterized_limit_execution(engine):
    prepared = engine.prepare(
        "SELECT id FROM items_bin WHERE id < 20 ORDER BY id DESC LIMIT ?"
    )
    assert [row[0] for row in prepared.execute(3)] == [19, 18, 17]
    assert len(prepared.execute(7)) == 7


def test_limit_parameter_rejects_non_integers(engine):
    prepared = engine.prepare("SELECT id FROM items_bin ORDER BY id LIMIT :n")
    with pytest.raises(ProteusError, match="LIMIT parameter"):
        prepared.execute(n=None)
    with pytest.raises(ProteusError, match="LIMIT parameter"):
        prepared.execute(n="abc")
    with pytest.raises(ProteusError, match="LIMIT parameter"):
        prepared.execute(n=2.5)
    assert len(prepared.execute(n=3.0)) == 3  # integral floats are fine
    assert len(prepared.execute(n=np.int64(4))) == 4


def test_column_array_is_read_only_view(tmp_path):
    # On the codegen tier the buffer may alias the adaptive cache; a
    # writable view would let user code corrupt later query results.
    path = tmp_path / "vals.csv"
    path.write_text("k,v\n" + "".join(f"{i},{i * 1.5}\n" for i in range(20)))
    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("vals", str(path), schema=t.make_schema({"k": "int", "v": "float"}))
    engine.query("SELECT v FROM vals")  # populates the cache
    result = engine.query("SELECT v FROM vals")  # served from the cache
    arr = result.column_array("v")
    with pytest.raises(ValueError):
        arr[0] = 9999.0
    assert engine.query("SELECT v FROM vals").column("v")[0] == 0.0


def test_unnest_with_parameter(engine):
    prepared = engine.prepare(
        "for { o <- orders, l <- o.lines, l.qty > ? } yield count"
    )
    from tests.conftest import expected_orders

    for threshold in (1, 2):
        expected = sum(
            1
            for order in expected_orders()
            for line in order["lines"]
            if line["qty"] > threshold
        )
        assert prepared.execute(threshold).scalar() == expected


# -- compile-once acceptance ---------------------------------------------------


def test_one_codegen_across_parameter_values(paths):
    engine = make_engine(paths, enable_caching=False)
    prepared = engine.prepare("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    assert len(engine._compiled) == 0  # codegen is lazy, not at prepare
    first = prepared.execute(5)
    assert first.tier == "codegen"
    assert len(engine._compiled) == 1
    assert first.profile.compiled_from_cache is False
    second = prepared.execute(3)
    assert len(engine._compiled) == 1  # no second code generation
    assert second.profile.compiled_from_cache is True
    assert first.scalar() != second.scalar()


def test_executemany_reuses_one_program(paths):
    engine = make_engine(paths, enable_caching=False)
    prepared = engine.prepare("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    results = prepared.executemany([(2,), (4,), {0: 6}, 8])
    expected = [
        sum(1 for r in expected_items() if r["qty"] < value) for value in (2, 4, 6, 8)
    ]
    assert [r.scalar() for r in results] == expected
    assert len(engine._compiled) == 1


def test_query_sugar_accepts_parameters(engine):
    expected = sum(1 for r in expected_items() if r["qty"] < 4)
    assert engine.query(
        "SELECT COUNT(*) FROM items_csv WHERE qty < ?", 4
    ).scalar() == expected
    assert engine.query(
        "SELECT COUNT(*) FROM items_csv WHERE qty < :q", q=4
    ).scalar() == expected


# -- parameter binding errors --------------------------------------------------


def test_binding_errors(engine):
    prepared = engine.prepare(
        "SELECT COUNT(*) FROM items_csv WHERE qty < ? AND price > :lo"
    )
    assert prepared.parameters == [0, "lo"]
    with pytest.raises(ProteusError, match="missing value"):
        prepared.execute(5)
    with pytest.raises(ProteusError, match="unknown named parameter"):
        prepared.execute(5, hi=3)
    with pytest.raises(ProteusError, match="positional"):
        prepared.execute(5, 6, lo=1.0)
    # Unbound parameters also fail through the query() sugar.
    with pytest.raises(ProteusError, match="missing value"):
        engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < ?")


# -- lazy columnar ResultSet ---------------------------------------------------


def test_column_array_without_rows_round_trip(engine):
    result = engine.query("SELECT id, price FROM items_bin WHERE id < 50")
    prices = result.column_array("price")
    assert isinstance(prices, np.ndarray)
    assert prices.dtype == np.float64
    assert result._rows is None  # no tuples were materialized
    assert prices.tolist() == [r["price"] for r in expected_items() if r["id"] < 50]
    # Row access still works afterwards, lazily.
    assert len(result.rows) == 50
    with pytest.raises(ExecutionError):
        result.column_array("missing")


def test_fetch_batches_is_incremental(engine):
    result = engine.query("SELECT id FROM items_bin")
    batches = result.fetch_batches(32)
    first = next(batches)
    assert [row[0] for row in first] == list(range(32))
    assert result._rows is None  # prefix consumption does not materialize all
    sizes = [len(first)] + [len(batch) for batch in batches]
    assert sizes == [32, 32, 32, 24]
    with pytest.raises(ExecutionError):
        next(result.fetch_batches(0))


def test_result_set_v1_surface(engine):
    result = engine.query("SELECT id, qty FROM items_bin WHERE id < 3")
    assert isinstance(result, ResultSet)
    assert len(result) == 3
    assert result.column("qty") == [0, 1, 2]
    assert result.to_dicts()[0] == {"id": 0, "qty": 0}
    assert list(iter(result)) == result.rows


# -- NULLS LAST ordering fix ---------------------------------------------------


def test_order_by_descending_nulls_last_unit():
    data = {"v": [3.0, None, 1.0, None, 2.0]}
    length, ordered = _apply_order_and_limit_columns(
        ["v"], 5, dict(data), [("v", False)], None
    )
    assert ordered["v"] == [3.0, 2.0, 1.0, None, None]
    length, ordered = _apply_order_and_limit_columns(
        ["v"], 5, dict(data), [("v", True)], None
    )
    assert ordered["v"] == [1.0, 2.0, 3.0, None, None]


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_order_by_nulls_last_both_directions(tmp_path, tier, config):
    path = tmp_path / "with_nulls.json"
    with open(path, "w", encoding="utf-8") as handle:
        for record in (
            {"id": 1, "v": 3.0},
            {"id": 2},
            {"id": 3, "v": 1.0},
            {"id": 4},
            {"id": 5, "v": 2.0},
        ):
            handle.write(json.dumps(record) + "\n")
    engine = ProteusEngine(enable_caching=False, **config)
    engine.register_json("x", str(path), schema=t.make_schema({"id": "int", "v": "float"}))
    descending = engine.query("SELECT id, v FROM x ORDER BY v DESC")
    assert [row[1] for row in descending.rows] == [3.0, 2.0, 1.0, None, None]
    ascending = engine.query("SELECT id, v FROM x ORDER BY v ASC")
    assert [row[1] for row in ascending.rows] == [1.0, 2.0, 3.0, None, None]


# -- invalidation of outstanding prepared queries ------------------------------


def test_reregistration_invalidates_prepared_queries(tmp_path):
    path_a = tmp_path / "a.csv"
    path_a.write_text("k,v\n" + "".join(f"{i},{i}\n" for i in range(10)))
    path_b = tmp_path / "b.csv"
    path_b.write_text("k,v\n" + "".join(f"{i},{i * 100}\n" for i in range(10)))
    schema = t.make_schema({"k": "int", "v": "int"})

    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("swap", str(path_a), schema=schema)
    prepared = engine.prepare("SELECT SUM(v) FROM swap WHERE k < ?")
    assert prepared.execute(10).scalar() == sum(range(10))
    # Re-registering the same name must invalidate the outstanding prepared
    # query (its plan and the compiled program bake the old Dataset in); the
    # next execution transparently re-prepares against the new file.
    engine.register_csv("swap", str(path_b), schema=schema)
    assert prepared.execute(10).scalar() == sum(range(10)) * 100
    # Different parameter values keep working after the re-prepare.
    assert prepared.execute(5).scalar() == sum(range(5)) * 100


def test_unregister_fails_outstanding_prepared_queries(tmp_path):
    path = tmp_path / "gone.csv"
    path.write_text("k\n1\n2\n")
    engine = ProteusEngine(enable_caching=False)
    engine.register_csv("gone", str(path), schema=t.make_schema({"k": "int"}))
    prepared = engine.prepare("SELECT COUNT(*) FROM gone WHERE k < ?")
    assert prepared.execute(10).scalar() == 2
    engine.unregister("gone")
    with pytest.raises(ProteusError):
        prepared.execute(10)


# -- explain tier cascade ------------------------------------------------------


def test_explain_reports_tier_cascade(engine):
    text = engine.explain("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    assert "== tier cascade ==" in text
    assert "codegen: serves this plan  <- selected" in text
    assert "vectorized: would serve if the tiers above declined" in text
    assert "parallel_workers=" not in text  # serial configuration
    assert "volcano: would serve" in text


def test_explain_cascade_for_volcano_only_shape(engine):
    # A group-by output column that is neither a group key nor an aggregate
    # is only served by the Volcano interpreter.
    text = engine.explain(
        "SELECT qty + 1 AS q1, COUNT(*) FROM items_bin GROUP BY qty"
    )
    assert "codegen: declines" in text
    assert "vectorized: declines" in text
    assert "volcano: serves this plan  <- selected" in text


def test_explain_cascade_reports_unsplittable_parallel_scan(paths):
    engine = make_engine(
        paths, enable_codegen=False, parallel_workers=4, enable_caching=False
    )
    text = engine.explain("SELECT COUNT(*) FROM items_rowbin WHERE qty < 5")
    assert "vectorized: serves this plan  <- selected" in text
    assert "vectorized runs with parallel_workers=4" in text
    assert "vectorized-parallel" not in text
    # The unsplittable scan runs in the calling thread.
    result = engine.query("SELECT COUNT(*) FROM items_rowbin WHERE qty < 5")
    assert result.tier == "vectorized"
    assert result.profile.morsels_dispatched == 0
