"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
(§7): it runs the experiment driver from :mod:`repro.bench.experiments`, prints
the paper-style comparison matrix (visible with ``pytest -s``, and collected
into the report printed at the end of the session), asserts the comparative
*shape* the paper reports, and times
the corresponding Proteus query with pytest-benchmark.

Scales are laptop-sized; set ``REPRO_BENCH_SCALE`` (a float multiplier) to
grow or shrink every dataset, and ``REPRO_BENCH_DATA_DIR`` to control where
generated data is cached.
"""

from __future__ import annotations

import os

import pytest

#: Global scale multiplier applied to every benchmark workload.
SCALE_MULTIPLIER = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: float) -> float:
    return value * SCALE_MULTIPLIER


def scaled_int(value: int) -> int:
    return max(int(value * SCALE_MULTIPLIER), 10)


@pytest.fixture(scope="session")
def report_sink():
    """Collects experiment reports so a session summary can be printed."""
    collected: list[str] = []
    yield collected
    if collected:
        print("\n" + "\n\n".join(collected))


@pytest.fixture(scope="session")
def symantec_results():
    """Run the Symantec workload once and share it between the Figure 14 and
    Table 3 benchmarks (it is by far the most expensive experiment)."""
    from repro.bench import experiments

    return experiments.figure14(
        num_json=scaled_int(1_000),
        num_csv=scaled_int(4_000),
        num_binary=scaled_int(5_000),
    )
