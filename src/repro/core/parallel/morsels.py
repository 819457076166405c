"""Morsel planning for the vectorized executor's parallel runs.

A *morsel* is a contiguous range of global scan rows — the unit of work the
scheduler hands to workers (the batch analogue of HyPer-style morsel-driven
parallelism).  Morsel boundaries are always multiples of the executor's batch
size, so a pipeline running over morsels sees exactly the batch boundaries
a serial run would: per-batch operator output (join probe order
included) is bit-for-bit the same, and collecting morsel results in index
order reproduces the serial row order.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default upper bound on morsel size.  Large enough that per-morsel
#: scheduling overhead is noise, small enough that work stealing can
#: rebalance skewed pipelines (e.g. selective predicates).
DEFAULT_MORSEL_ROWS = 65536


@dataclass(frozen=True)
class Morsel:
    """One contiguous range of global scan rows, ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def plan_morsels(
    total_rows: int,
    batch_size: int,
    num_workers: int,
    morsel_rows: int | None = None,
) -> list[Morsel]:
    """Split ``total_rows`` into batch-aligned morsels.

    When no explicit ``morsel_rows`` is given, the size adapts so that every
    worker gets at least two morsels (leaving room for stealing) without
    dropping below one batch per morsel or exceeding
    :data:`DEFAULT_MORSEL_ROWS`.
    """
    if total_rows <= 0:
        return []
    batch_size = max(int(batch_size), 1)
    if morsel_rows is None:
        per_worker_target = -(-total_rows // max(num_workers * 2, 1))  # ceil
        morsel_rows = min(DEFAULT_MORSEL_ROWS, max(per_worker_target, 1))
    # Align up to a batch multiple so morsels reproduce serial batch
    # boundaries exactly.
    morsel_rows = max(batch_size, -(-morsel_rows // batch_size) * batch_size)
    morsels: list[Morsel] = []
    for index, start in enumerate(range(0, total_rows, morsel_rows)):
        morsels.append(Morsel(index, start, min(start + morsel_rows, total_rows)))
    return morsels
