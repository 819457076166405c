"""Tests for the static plan analyzer: prepare-time diagnostics, tier
verdicts (differentially checked against the tiers that actually serve),
statistics-proven nullability hints and the tier-parity repo lint."""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core import types as t
from repro.errors import AnalysisError, ProteusError, SchemaError

from tests.conftest import make_engine

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import tier_lint  # noqa: E402


REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Prepare-time diagnostics (TYP001 .. TYP005)
# ---------------------------------------------------------------------------


def _prepare_error(engine, query) -> AnalysisError:
    with pytest.raises(ProteusError) as excinfo:
        engine.prepare(query)
    assert isinstance(excinfo.value, AnalysisError)
    return excinfo.value


def test_unknown_nested_output_field_raises_at_prepare(paths):
    """Regression: an unknown field referenced through a nested path used to
    surface as a raw KeyError inside whichever tier executed the query; it
    must be an AnalysisError naming field and dataset at prepare() time."""
    engine = make_engine(paths)
    error = _prepare_error(engine, "SELECT origin.nosuch AS x FROM orders")
    assert error.code == "TYP001"
    assert error.dataset == "orders"
    assert error.field == "origin.nosuch"
    assert "orders" in str(error) and "origin.nosuch" in str(error)
    # The same diagnostic through the comprehension front end.
    error = _prepare_error(
        engine, "for { o <- orders } yield bag (o.origin.nosuch)"
    )
    assert error.code == "TYP001"
    assert error.dataset == "orders"


def test_analysis_error_is_a_schema_error(paths):
    """AnalysisError subclasses SchemaError, so pre-existing callers that
    catch SchemaError keep working."""
    engine = make_engine(paths)
    with pytest.raises(SchemaError):
        engine.prepare("SELECT nonexistent FROM items_csv")


def test_mixed_type_comparison_raises_typ002(paths):
    engine = make_engine(paths)
    error = _prepare_error(
        engine, "SELECT id FROM items_csv WHERE price < category"
    )
    assert error.code == "TYP002"
    assert "float" in str(error) and "string" in str(error)


def test_non_numeric_aggregate_raises_typ003(paths):
    engine = make_engine(paths)
    error = _prepare_error(engine, "SELECT SUM(category) AS s FROM items_csv")
    assert error.code == "TYP003"
    assert "sum()" in str(error)


def test_non_numeric_arithmetic_raises_typ004(paths):
    engine = make_engine(paths)
    error = _prepare_error(engine, "SELECT category + 1 AS x FROM items_csv")
    assert error.code == "TYP004"


def test_unnest_of_scalar_field_raises_typ005(paths):
    engine = make_engine(paths)
    error = _prepare_error(
        engine, "for { o <- orders, l <- o.okey } yield bag (o.okey)"
    )
    assert error.code == "TYP005"
    assert error.dataset == "orders"
    assert error.field == "okey"


def test_errors_raised_before_any_execution(paths):
    """prepare() alone must raise — no execute() call needed."""
    engine = make_engine(paths)
    for query in [
        "SELECT origin.nosuch AS x FROM orders",
        "SELECT id FROM items_csv WHERE price < category",
        "SELECT SUM(category) AS s FROM items_csv",
    ]:
        with pytest.raises(AnalysisError):
            engine.prepare(query)


# ---------------------------------------------------------------------------
# Differential suite: predicted tier == observed tier
# ---------------------------------------------------------------------------

#: Query shapes spanning every operator the verdicts reason about.  None of
#: these hit a run-time demotion (the fixture data has no missing group or
#: join keys), so the static verdict must equal the observed tier exactly.
DIFFERENTIAL_QUERIES = [
    "SELECT id, price FROM items_csv WHERE qty > 5",
    "SELECT COUNT(*) FROM items_json WHERE price > 3",
    "SELECT category, SUM(price) AS total FROM items_csv GROUP BY category",
    "SELECT a.id, b.qty FROM items_csv a JOIN items_json b ON a.id = b.id "
    "WHERE b.qty > 2",
    "SELECT id, price FROM items_bin ORDER BY price DESC LIMIT 7",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
    "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)",
    "SELECT category, COUNT(*) AS n FROM items_csv GROUP BY category "
    "ORDER BY n DESC",
]

CONFIGS = [
    {},
    {"enable_codegen": False},
    {"enable_codegen": False, "enable_vectorized": False},
    {"parallel_workers": 2, "vectorized_batch_size": 16},
    {"enable_codegen": False, "parallel_workers": 2, "vectorized_batch_size": 16},
    {"enable_codegen": False, "parallel_workers": 8, "vectorized_batch_size": 16},
    {"enable_codegen": False, "parallel_workers": 2},  # single morsel
]


@pytest.mark.parametrize("config", CONFIGS, ids=[str(c) for c in CONFIGS])
def test_predicted_tier_matches_observed(paths, config):
    engine = make_engine(paths, **config)
    for query in DIFFERENTIAL_QUERIES:
        prepared = engine.prepare(query)
        predicted = prepared.analysis.predicted_tier
        result = prepared.execute()
        assert result.tier == predicted, (query, config)
        assert result.profile.predicted_tier == predicted, (query, config)


def test_parameterized_query_verdicts(paths):
    engine = make_engine(
        paths, enable_codegen=False, parallel_workers=2, vectorized_batch_size=16
    )
    prepared = engine.prepare("SELECT id FROM items_csv WHERE price > ?")
    assert prepared.analysis.predicted_tier == "vectorized"
    for value in (1.0, 3.0, 100.0):
        result = prepared.execute(value)
        assert result.tier == "vectorized"
        assert result.profile.morsels_dispatched > 1


def test_verdict_codes_for_declines(paths):
    engine = make_engine(paths, parallel_workers=2, vectorized_batch_size=16)
    # Outer unnest: codegen declines with a plan-shape code, batch serves.
    analysis = engine.prepare(
        "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)"
    ).analysis
    declines = analysis.decline_reasons()
    assert declines["codegen"].startswith("[TIER002]")
    assert analysis.predicted_tier == "vectorized"

    # Disabled tiers carry TIER001 with the exact configuration wording.
    serial = make_engine(paths, enable_codegen=False, enable_vectorized=False)
    analysis = serial.prepare("SELECT id FROM items_csv").analysis
    declines = analysis.decline_reasons()
    assert declines["codegen"] == "[TIER001] disabled (enable_codegen=False)"
    assert declines["vectorized"] == "[TIER001] disabled (enable_vectorized=False)"


def test_unsplittable_scan_and_single_morsel_codes(paths):
    """Neither an unsplittable scan nor a single-morsel input is a decline:
    no code beyond the disabled codegen tier, and the vectorized tier serves
    both in the calling thread."""
    # Binary row tables cannot be range-split.
    unsplittable = make_engine(
        paths, enable_codegen=False, parallel_workers=2, vectorized_batch_size=16
    )
    # Default batch size over 120 rows fits one morsel.
    single = make_engine(paths, enable_codegen=False, parallel_workers=2)
    for engine, query in (
        (unsplittable, "SELECT id FROM items_rowbin WHERE qty > 1"),
        (single, "SELECT id FROM items_csv WHERE qty > 1"),
    ):
        analysis = engine.prepare(query).analysis
        assert list(analysis.decline_reasons()) == ["codegen"], query
        assert analysis.predicted_tier == "vectorized", query
        result = engine.query(query)
        assert result.tier == "vectorized", query
        assert result.profile.morsels_dispatched == 0, query


def test_outer_join_declines_all_batch_tiers(paths):
    """TIER005: outer joins are Volcano-only, predicted and observed."""
    from repro.core.physical import PhysHashJoin

    engine = make_engine(paths, parallel_workers=2, vectorized_batch_size=16)
    prepared = engine.prepare(
        "SELECT a.id, b.qty FROM items_csv a JOIN items_json b ON a.id = b.id"
    )
    plan = prepared.plan
    joins = [n for n in plan.walk() if isinstance(n, PhysHashJoin)]
    assert joins, "planner should hash-join an equijoin"
    joins[0].outer = True
    verdicts = engine._verdicts(plan)
    by_tier = {v.tier: v for v in verdicts}
    for tier in ("codegen", "vectorized"):
        assert not by_tier[tier].serves
        assert by_tier[tier].code == "TIER005"
    assert by_tier["volcano"].serves


# ---------------------------------------------------------------------------
# Runtime demotion (TIER009) and decline recording in the profile
# ---------------------------------------------------------------------------


@pytest.fixture()
def null_group_engine(paths, tmp_path):
    engine = make_engine(paths)
    path = tmp_path / "nullg.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(50):
            record = {"g": None if i % 7 == 0 else f"g{i % 3}", "v": float(i)}
            handle.write(json.dumps(record) + "\n")
    engine.register_json(
        "nullg", str(path), schema=t.make_schema({"g": "string", "v": "float"})
    )
    return engine


def test_runtime_demotion_recorded_in_profile(null_group_engine):
    """Null group keys demote the batch tiers at run time; the profile must
    say so instead of silently swallowing the CodegenError."""
    result = null_group_engine.query(
        "SELECT g, SUM(v) AS s FROM nullg GROUP BY g"
    )
    assert result.tier == "volcano"
    assert result.profile.predicted_tier == "codegen"
    reasons = result.profile.tier_decline_reasons
    assert reasons["codegen"].startswith("[TIER009] runtime demotion:")
    assert "missing values" in reasons["codegen"]
    assert reasons["vectorized"].startswith("[TIER009]")


def test_static_declines_recorded_in_profile(paths):
    engine = make_engine(paths)
    result = engine.query(
        "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)"
    )
    assert result.tier == "vectorized"
    reasons = result.profile.tier_decline_reasons
    assert reasons["codegen"].startswith("[TIER002]")
    assert "outer unnest" in reasons["codegen"]


def test_explain_shows_schema_and_codes(paths):
    engine = make_engine(paths, enable_codegen=False)
    text = engine.explain(
        "SELECT category, COUNT(*) AS n FROM items_csv GROUP BY category"
    )
    assert "== inferred output schema ==" in text
    assert "category: string" in text
    assert "n: int" in text
    assert "vectorized: serves this plan  <- selected" in text
    assert "[TIER001]" in text  # the disabled codegen tier's decline code


# ---------------------------------------------------------------------------
# Statistics-proven nullability hints
# ---------------------------------------------------------------------------


def test_hints_require_statistics_proof(paths, tmp_path):
    engine = make_engine(paths)
    # Without analyze(), CSV/JSON nullability is unknown: no hints.
    analysis = engine.prepare("SELECT id, price FROM items_csv").analysis
    assert analysis.hints.non_null_columns == frozenset()
    assert all(column.nullable for column in analysis.columns)

    # analyze() proves the fixture columns are fully populated.
    engine.analyze("items_csv")
    analysis = engine.prepare("SELECT id, price FROM items_csv").analysis
    assert analysis.hints.non_null_columns == frozenset({"id", "price"})
    assert not analysis.column("id").nullable

    # A column with observed nulls is never proven, even after analyze().
    path = tmp_path / "holes.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(30):
            record = {"k": i, "v": None if i % 5 == 0 else float(i)}
            handle.write(json.dumps(record) + "\n")
    engine.register_json(
        "holes", str(path), schema=t.make_schema({"k": "int", "v": "float"}),
        analyze=True,
    )
    analysis = engine.prepare("SELECT k, v FROM holes").analysis
    assert analysis.column("k").nullable is False
    assert analysis.column("v").nullable is True
    assert "v" not in analysis.hints.non_null_columns


def test_hinted_aggregates_stay_correct_with_nulls(paths, tmp_path):
    """The hint machinery must never claim a column with nulls: SUM over a
    holey column returns the null-skipping total in every configuration."""
    path = tmp_path / "holes.json"
    expected = 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(40):
            value = None if i % 3 == 0 else float(i)
            if value is not None:
                expected += value
            handle.write(json.dumps({"k": i, "v": value}) + "\n")
    for analyze in (False, True):
        engine = make_engine(paths)
        engine.register_json(
            "holes", str(path),
            schema=t.make_schema({"k": "int", "v": "float"}), analyze=analyze,
        )
        result = engine.query("SELECT SUM(v) AS s FROM holes")
        assert result.rows == [(expected,)]


def test_hints_apply_after_analyze_and_results_match(paths):
    """Hinted (post-analyze) and unhinted runs of the same ORDER BY and
    GROUP BY queries return identical rows."""
    queries = [
        "SELECT id, category FROM items_csv ORDER BY category, id LIMIT 11",
        "SELECT category, SUM(price) AS total, AVG(qty) AS aq FROM items_csv "
        "GROUP BY category ORDER BY category",
    ]
    cold = make_engine(paths)
    hot = make_engine(paths)
    hot.analyze("items_csv")
    for query in queries:
        assert (
            hot.prepare(query).analysis.hints.non_null_columns != frozenset()
        )
        assert hot.query(query).rows == cold.query(query).rows


def test_prepared_analysis_exposes_verdicts(paths):
    engine = make_engine(paths)
    analysis = engine.prepare("SELECT id FROM items_csv WHERE qty > 2").analysis
    tiers = [verdict.tier for verdict in analysis.verdicts]
    assert tiers == ["codegen", "vectorized", "volcano"]
    assert analysis.verdict("codegen").serves
    assert analysis.verdict("volcano").serves


# ---------------------------------------------------------------------------
# tier_lint: passes on the repo, fails on seeded violations
# ---------------------------------------------------------------------------


def test_tier_lint_passes_on_repo():
    assert tier_lint.run(REPO_ROOT) == []


def _copy_lint_inputs(tmp_path):
    """A scratch repo holding the modules the tier-parity check reads."""
    root = tmp_path / "repo"
    for relative in [
        tier_lint.PHYSICAL_MODULE,
        tier_lint.CAPABILITIES_MODULE,
        *tier_lint.EXECUTOR_MODULES.values(),
    ]:
        source = REPO_ROOT / relative
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(source, target)
    return root


def test_tier_lint_flags_unhandled_operator(tmp_path):
    root = _copy_lint_inputs(tmp_path)
    physical = root / tier_lint.PHYSICAL_MODULE
    physical.write_text(
        physical.read_text(encoding="utf-8")
        + "\n\nclass PhysBogus(PhysicalPlan):\n    pass\n",
        encoding="utf-8",
    )
    violations = tier_lint.check_tier_parity(root)
    assert len(violations) == len(tier_lint.EXECUTOR_MODULES)
    assert all("PhysBogus" in violation for violation in violations)


def test_tier_lint_flags_tier_without_executor_mapping(tmp_path, monkeypatch):
    root = _copy_lint_inputs(tmp_path)
    capabilities = root / tier_lint.CAPABILITIES_MODULE
    text = capabilities.read_text(encoding="utf-8")
    capabilities.write_text(
        text.replace(
            "    TIER_VOLCANO: {\n",
            "    TIER_GHOST: {},\n    TIER_VOLCANO: {\n",
            1,
        ),
        encoding="utf-8",
    )
    violations = tier_lint.check_tier_parity(root)
    assert len(violations) == 1
    assert "TIER_GHOST" in violations[0]
    # The reverse: an executor module whose tier has no capability row.
    monkeypatch.setitem(
        tier_lint.EXECUTOR_MODULES,
        "TIER_ORPHAN",
        tier_lint.EXECUTOR_MODULES["TIER_VOLCANO"],
    )
    orphaned = [v for v in tier_lint.check_tier_parity(root) if "TIER_ORPHAN" in v]
    assert orphaned and "no TIER_ORPHAN row" in orphaned[0]


def test_tier_lint_flags_stale_capability_entry(tmp_path):
    root = _copy_lint_inputs(tmp_path)
    capabilities = root / tier_lint.CAPABILITIES_MODULE
    text = capabilities.read_text(encoding="utf-8")
    capabilities.write_text(
        text.replace(
            "    TIER_VOLCANO: {\n        PhysScan: None,",
            "    TIER_VOLCANO: {\n        PhysGhost: None,\n        PhysScan: None,",
            1,
        ),
        encoding="utf-8",
    )
    violations = tier_lint.check_tier_parity(root)
    assert any("PhysGhost" in violation for violation in violations)


# Lock discipline is now checked repo-wide by tools/concurrency_lint.py
# (see tests/test_concurrency.py for its seeded-violation suite).


def test_tier_lint_cli(capsys):
    assert tier_lint.main(["--root", str(REPO_ROOT)]) == 0
    assert "tier_lint: ok" in capsys.readouterr().out
