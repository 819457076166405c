"""Morsel scheduling primitives of the vectorized executor.

With ``num_workers > 1`` the vectorized executor
(:mod:`repro.core.executor.vectorized`) splits its driving scan into
batch-aligned morsels (:mod:`repro.core.parallel.morsels`), dispatches them
to a pool of worker threads through a work-stealing queue
(:mod:`repro.core.parallel.scheduler`), and merges the per-morsel partials
of its plan root in morsel order.
"""

from repro.core.parallel.morsels import DEFAULT_MORSEL_ROWS, Morsel, plan_morsels
from repro.core.parallel.scheduler import WorkerPool, WorkStealingQueue

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "Morsel",
    "WorkStealingQueue",
    "WorkerPool",
    "plan_morsels",
]
