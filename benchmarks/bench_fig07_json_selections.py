"""Figure 7: selection queries (1/3/4 predicates) over JSON data.

Paper shape: Proteus converts predicate values on the fly yet beats the
systems operating over pre-loaded binary JSON, because after extraction its
generated code eliminates the remaining per-tuple CPU overheads; DBMS X's
character-encoded JSON makes it the slowest.
"""

import pytest

from benchmarks.conftest import scaled
from benchmarks.helpers import (
    assert_no_mismatches,
    proteus_faster_than,
    proteus_json_adapter,
    record_report,
    run_hot,
)
from repro.bench import data as bench_data
from repro.bench import experiments
from repro.workloads import templates

SCALE = scaled(0.3)


@pytest.fixture(scope="module")
def report(report_sink):
    result = experiments.figure7(scale=SCALE)
    record_report(report_sink, result, experiments.JSON_SYSTEMS_CORE)
    return result


def test_fig07_shape(benchmark, report):
    assert_no_mismatches(report)
    proteus_faster_than(report, experiments.DBMS_X)
    # The margin over the binary-document engines is compressed in this
    # reproduction (see the printed report) because every predicate column is
    # re-extracted from the raw JSON per query (caching is off here).
    proteus_faster_than(report, experiments.POSTGRES, experiments.MONGO, margin=0.5)
    # The character-encoded row store pays per predicate: 4 predicates cost it
    # more than 1 predicate at the same selectivity.
    one = report.seconds(experiments.DBMS_X, "selection_1pred_100")
    four = report.seconds(experiments.DBMS_X, "selection_4pred_100")
    assert four > one

    files = bench_data.tpch_files(scale=SCALE)
    adapter = proteus_json_adapter(SCALE, {"lineitem": ""})
    spec = templates.selection_query(
        "lineitem", files.tables.orderkey_threshold(0.5), 4, 0.5
    )
    benchmark(run_hot(adapter, spec))
