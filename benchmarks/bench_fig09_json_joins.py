"""Figure 9: join and unnest queries over JSON data.

Paper shape: Proteus wins every join variant (minimal generated code, light
JSON access path, radix hash join); MongoDB has no join operator — its
map-reduce-style emulation is only reported for the first variant — but it
outperforms the row stores on the Unnest query over denormalized data, where
Proteus again is fastest because its generated code merely walks the arrays.
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

SCALE = scaled(0.2)


@pytest.fixture(scope="module")
def report(report_sink):
    result = experiments.figure9(scale=SCALE)
    record_report(report_sink, result, experiments.JSON_SYSTEMS_CORE)
    return result


def test_fig09_shape(benchmark, report):
    assert_no_mismatches(report)
    proteus_faster_than(report, experiments.POSTGRES, experiments.DBMS_X)
    # MongoDB's join emulation is slower than Proteus' radix join.
    mongo_join = report.seconds(experiments.MONGO, "join_count_50")
    proteus_join = report.seconds(experiments.PROTEUS, "join_count_50")
    assert mongo_join > proteus_join
    # The unnest over denormalized JSON does not leave Proteus behind the row
    # stores by more than its fixed per-query cost (at full scale Proteus wins
    # outright).
    assert report.seconds(experiments.PROTEUS, "unnest_count_50") < \
        report.seconds(experiments.POSTGRES, "unnest_count_50") + 0.005

    files = bench_data.tpch_files(scale=SCALE)
    adapter = proteus_json_adapter(SCALE, {"orders": "", "lineitem": ""})
    spec = templates.join_query(
        "orders", "lineitem", files.tables.orderkey_threshold(0.5), "2agg", 0.5
    )
    benchmark(run_hot(adapter, spec))
