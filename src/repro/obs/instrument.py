"""Instrumentation shims that attach span accumulators to the executors.

Every helper here is a no-op pass-through when the trace builder is ``None``
— the batch tiers then run the exact stage/scan objects they always ran, and
the codegen runtime keeps its original bound methods.  With tracing on:

* :class:`TracedStage` wraps one pipeline stage (Select/Unnest/Join), timing
  each ``apply`` exclusively (its own work only) with rows-in/rows-out and
  batch counts,
* :class:`TracedScan` wraps the pipeline's ``ScanOperator``, timing the time
  spent *inside* the plug-in's batch stream and summing produced bytes —
  parallel vectorized workers stream disjoint morsel ranges through the same
  wrapper, so their per-morsel flushes aggregate into one morsel-merged span,
* :func:`instrument_runtime` rebinds the codegen ``QueryRuntime`` kernels
  (``scan``/``unnest``/``radix_join``/…) with span-recording closures.
  Generated programs may execute against synthesized sub-plans (lazy field
  materialization splits a scan in two), so codegen spans are keyed by
  kernel kind + label and matched back to plan nodes by operator kind at
  render time.

``SPAN_INSTRUMENTED_OPERATORS`` / ``SPAN_EXEMPT_OPERATORS`` are the
declarative coverage tables ``tools/tier_lint.py`` checks: every ``Phys*``
operator must either be span-instrumented (with a note saying where) or
explicitly exempted.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.trace import SpanAccumulator, TraceBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.codegen.runtime import QueryRuntime
    from repro.core.executor.vectorized import Batch, PipelineCounters

#: Where each physical operator's span comes from, per tier.  Checked by
#: ``tools/tier_lint.py``: a ``Phys*`` class missing from both this table and
#: ``SPAN_EXEMPT_OPERATORS`` fails the lint.
SPAN_INSTRUMENTED_OPERATORS: dict[str, str] = {
    "PhysScan": "TracedScan wraps ScanOperator (batch tiers); rt.scan/"
                "rt.scan_selected closures (codegen); iterator wrapper (volcano)",
    "PhysSelect": "TracedStage(SelectStage) (batch tiers); rt.mask closure "
                  "(codegen, mask coercion only — the comparison itself is "
                  "inlined in the generated program); iterator wrapper (volcano)",
    "PhysUnnest": "TracedStage(UnnestStage) (batch tiers); rt.unnest closure "
                  "(codegen); iterator wrapper (volcano)",
    "PhysHashJoin": "TracedStage(HashJoinStage) (batch tiers); rt.radix_join "
                    "closure (codegen); iterator wrapper (volcano)",
    "PhysNestedLoopJoin": "TracedStage(NestedLoopJoinStage) (batch tiers); "
                          "rt.cross_product closure (codegen); iterator "
                          "wrapper (volcano)",
    "PhysReduce": "engine-side root span around the tier's reduce "
                  "(all tiers); rt.scalar_agg/rt.record_output closures (codegen)",
    "PhysNest": "engine-side root span around the tier's grouping "
                "(all tiers); rt.radix_group/rt.group_agg closures (codegen)",
    "PhysSort": "engine-side sort span around the columnar epilogue; in-tier "
                "sorts (streaming top-K, parallel merge) are covered by the "
                "root span and attributed via profile.sort_strategy",
}

#: Operators deliberately left without spans, with the reason why.
SPAN_EXEMPT_OPERATORS: dict[str, str] = {}


def _batch_nbytes(batch: "Batch") -> int:
    total = 0
    for column in batch.columns.values():
        total += getattr(column, "nbytes", 0)
    return total


def _buffers_nbytes(buffers: Any) -> int:
    columns = getattr(buffers, "columns", None)
    if not columns:
        return 0
    return sum(getattr(column, "nbytes", 0) for column in columns.values())


class TracedStage:
    """A pipeline stage wrapped with an exclusive-time span accumulator."""

    __slots__ = ("inner", "accumulator")

    def __init__(self, inner: Any, accumulator: SpanAccumulator) -> None:
        self.inner = inner
        self.accumulator = accumulator

    def apply(self, batch: "Batch", counters: "PipelineCounters") -> "Batch | None":
        started = time.perf_counter()
        out = self.inner.apply(batch, counters)
        self.accumulator.add_batch(
            time.perf_counter() - started,
            batch.count,
            out.count if out is not None else 0,
        )
        return out

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class TracedScan:
    """A ``ScanOperator`` wrapped with a span over its plug-in streams.

    Only the time spent *inside* the underlying batch generator is charged
    to the span (pipeline stages downstream are timed by their own
    wrappers).  One flush happens per exhausted stream, so the parallel
    tier pays one locked add per morsel, not per batch.
    """

    __slots__ = ("inner", "accumulator")

    def __init__(self, inner: Any, accumulator: SpanAccumulator) -> None:
        self.inner = inner
        self.accumulator = accumulator

    def iter_batches(
        self, counters: "PipelineCounters", batch_size: int
    ) -> Iterator["Batch"]:
        return self._timed(self.inner.iter_batches(counters, batch_size))

    def iter_range(
        self, start: int, stop: int, counters: "PipelineCounters", batch_size: int
    ) -> Iterator["Batch"]:
        return self._timed(self.inner.iter_range(start, stop, counters, batch_size))

    def _timed(self, stream: Iterator["Batch"]) -> Iterator["Batch"]:
        seconds = 0.0
        rows = 0
        batches = 0
        nbytes = 0
        try:
            while True:
                started = time.perf_counter()
                try:
                    batch = next(stream)
                except StopIteration:
                    seconds += time.perf_counter() - started
                    return
                seconds += time.perf_counter() - started
                rows += batch.count
                batches += 1
                nbytes += _batch_nbytes(batch)
                yield batch
        finally:
            self.accumulator.add(
                seconds=seconds,
                rows_out=rows,
                batches=batches,
                nbytes=nbytes,
                invocations=1,
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def traced_stage(trace: TraceBuilder | None, node: object, stage: Any) -> Any:
    """Wrap a pipeline stage with a span for ``node``; pass-through untraced."""
    if trace is None:
        return stage
    name = type(node).__name__.removeprefix("Phys").lower()
    accumulator = trace.operator(
        name,
        node=node,
        detail=type(stage).__name__,
    )
    return TracedStage(stage, accumulator)


def traced_scan(trace: TraceBuilder | None, node: object, operator: Any) -> Any:
    """Wrap a ``ScanOperator`` with a span; pass-through untraced."""
    if trace is None:
        return operator
    dataset_name = getattr(getattr(operator, "dataset", None), "name", "?")
    accumulator = trace.operator(
        f"scan:{dataset_name}",
        node=node,
        detail=getattr(getattr(operator, "plugin", None), "format_name", ""),
    )
    return TracedScan(operator, accumulator)


def instrument_runtime(runtime: "QueryRuntime", trace: TraceBuilder) -> None:
    """Rebind a codegen ``QueryRuntime``'s kernels with span recording.

    The closures shadow the class methods on this one instance only; an
    untraced runtime keeps the original bound methods and pays nothing.
    """
    perf = time.perf_counter
    join_count = [0]
    cross_count = [0]

    inner_scan = runtime.scan

    def scan(plugin: Any, dataset: Any, paths: Any) -> Any:
        accumulator = trace.operator(
            f"scan:{dataset.name}", operator="PhysScan", detail=plugin.format_name
        )
        started = perf()
        buffers = inner_scan(plugin, dataset, paths)
        accumulator.add(
            seconds=perf() - started,
            rows_out=buffers.count,
            nbytes=_buffers_nbytes(buffers),
            batches=1,
        )
        return buffers

    inner_scan_selected = runtime.scan_selected

    def scan_selected(plugin: Any, dataset: Any, paths: Any, oids: Any) -> Any:
        accumulator = trace.operator(
            f"scan:{dataset.name}",
            operator="PhysScan",
            detail=f"{plugin.format_name} (+lazy fields)",
        )
        started = perf()
        buffers = inner_scan_selected(plugin, dataset, paths, oids)
        accumulator.add(
            seconds=perf() - started,
            rows_out=0,  # lazy fields add columns, not rows
            nbytes=_buffers_nbytes(buffers),
            batches=1,
        )
        return buffers

    inner_unnest = runtime.unnest

    def unnest(
        plugin: Any,
        dataset: Any,
        collection_path: Any,
        element_paths: Any,
        parent_oids: Any,
        full_scan: bool = False,
    ) -> Any:
        path = ".".join(collection_path)
        accumulator = trace.operator(
            f"unnest:{dataset.name}.{path}",
            operator="PhysUnnest",
            detail=plugin.format_name,
        )
        started = perf()
        buffers = inner_unnest(
            plugin, dataset, collection_path, element_paths, parent_oids,
            full_scan=full_scan,
        )
        accumulator.add(
            seconds=perf() - started,
            rows_in=len(parent_oids) if parent_oids is not None else 0,
            rows_out=buffers.count,
            nbytes=_buffers_nbytes(buffers),
            batches=1,
        )
        return buffers

    inner_radix_join = runtime.radix_join

    def radix_join(left_keys: Any, right_keys: Any, *args: Any, **kwargs: Any) -> Any:
        join_count[0] += 1
        accumulator = trace.operator(
            f"join:{join_count[0]}", operator="PhysHashJoin", detail="radix join"
        )
        started = perf()
        left_positions, right_positions = inner_radix_join(
            left_keys, right_keys, *args, **kwargs
        )
        accumulator.add(
            seconds=perf() - started,
            rows_in=len(right_keys),
            rows_out=len(left_positions),
            batches=1,
        )
        return left_positions, right_positions

    inner_cross = runtime.cross_product

    def cross_product(left_count: int, right_count: int) -> Any:
        cross_count[0] += 1
        accumulator = trace.operator(
            f"nested-loop:{cross_count[0]}",
            operator="PhysNestedLoopJoin",
            detail="cartesian index pairs; the residual predicate is inlined",
        )
        started = perf()
        left, right = inner_cross(left_count, right_count)
        accumulator.add(
            seconds=perf() - started,
            rows_in=left_count,
            rows_out=len(left),
            batches=1,
        )
        return left, right

    inner_mask = runtime.mask

    def mask(values: Any) -> Any:
        accumulator = trace.operator(
            "select",
            operator="PhysSelect",
            detail="mask coercion only; predicate arithmetic is inlined "
                   "in the generated program",
        )
        started = perf()
        result = inner_mask(values)
        accumulator.add(
            seconds=perf() - started,
            rows_in=len(result),
            rows_out=int(result.sum()),
            batches=1,
        )
        return result

    inner_radix_group = runtime.radix_group

    def radix_group(key_arrays: Any) -> Any:
        accumulator = trace.operator(
            "group-by", operator="PhysNest", detail="radix grouping + aggregates"
        )
        started = perf()
        result = inner_radix_group(key_arrays)
        accumulator.add(
            seconds=perf() - started,
            rows_in=len(key_arrays[0]) if len(key_arrays) else 0,
            rows_out=result.num_groups,
            batches=1,
        )
        return result

    inner_group_agg = runtime.group_agg

    def group_agg(func: str, group_ids: Any, num_groups: int, values: Any = None) -> Any:
        accumulator = trace.operator(
            "group-by", operator="PhysNest", detail="radix grouping + aggregates"
        )
        started = perf()
        result = inner_group_agg(func, group_ids, num_groups, values)
        accumulator.add(seconds=perf() - started, batches=1)
        return result

    inner_scalar_agg = runtime.scalar_agg

    def scalar_agg(func: str, values: Any, count: int) -> Any:
        accumulator = trace.operator(
            "reduce", operator="PhysReduce", detail="scalar aggregates"
        )
        started = perf()
        result = inner_scalar_agg(func, values, count)
        accumulator.add(seconds=perf() - started, rows_in=count, batches=1)
        return result

    inner_record_output = runtime.record_output

    def record_output(count: int) -> None:
        accumulator = trace.operator(
            "reduce", operator="PhysReduce", detail="projected output"
        )
        accumulator.add(rows_out=int(count), invocations=0)
        inner_record_output(count)

    runtime.scan = scan  # type: ignore[method-assign]
    runtime.scan_selected = scan_selected  # type: ignore[method-assign]
    runtime.unnest = unnest  # type: ignore[method-assign]
    runtime.radix_join = radix_join  # type: ignore[method-assign]
    runtime.cross_product = cross_product  # type: ignore[method-assign]
    runtime.mask = mask  # type: ignore[method-assign]
    runtime.radix_group = radix_group  # type: ignore[method-assign]
    runtime.group_agg = group_agg  # type: ignore[method-assign]
    runtime.scalar_agg = scalar_agg  # type: ignore[method-assign]
    runtime.record_output = record_output  # type: ignore[method-assign]
