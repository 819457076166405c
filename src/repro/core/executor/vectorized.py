"""Vectorized batch executor — the middle execution tier.

The paper's §5 identifies per-tuple interpretation as the dominant overhead of
static engines, and removes it by collapsing each plan into a specialized
program.  The Volcano interpreter exists as the ablation baseline for that
claim, but it also serves every query shape the code generator does not cover
— so those shapes, and every ablation with code generation disabled, pay the
exact overhead the paper measures.

This executor closes that gap without generating code: it interprets the same
physical plans, but over NumPy columnar *batches* (default 4096 rows) instead
of per-tuple dict environments.  The plan is first lowered by
:class:`PipelineCompiler` into a :class:`CompiledPipeline` — one
:class:`ScanOperator` batch source plus a list of per-batch stages:

* :class:`SelectStage` evaluates the predicate once per batch into a boolean
  mask,
* :class:`HashJoinStage` holds the materialized build side and one radix
  table and probes it batch-at-a-time,
* :class:`UnnestStage` flattens nested collections batch-natively through the
  plug-in's ``scan_unnest_batch`` offset-vector API (one ``np.repeat``
  broadcast of the parent columns per batch; outer unnest emits null child
  rows for empty collections, and nested-in-nested flattens materialized
  collection columns in memory),
* grouping concatenates key/argument columns and reduces them with the radix
  grouping kernel (``np.unique`` + segmented reductions).

The stages are deliberately *stateless per batch* (all mutable state lives in
the per-call :class:`PipelineCounters`), so the same pipeline object can be
executed over any batch range by any worker.  That is how the executor runs
in parallel: with ``num_workers > 1`` and a driving scan that splits into
several batch-aligned morsels (:mod:`repro.core.parallel`), a work-stealing
pool runs the pipeline over the morsels and each plan root merges its
per-morsel partials in morsel order — partial aggregation for global
aggregates, partial radix grouping plus a grouped merge for group-bys,
sorted runs plus a k-way merge for ``ORDER BY``, concatenation for
projections.  Otherwise the same roots run in the calling thread over the
whole scan as one partial.  Integer results are bit-identical at any worker
count; float sums may differ in the last ulp, because addition is
reassociated across morsels, but stay deterministic run to run.

The scan operator also consults the adaptive :class:`CacheManager` the way
the generated tier does: cached field columns are served (and counted as
cache hits) instead of re-converting raw bytes, and fully-scanned columns are
admitted to the cache as a side effect of execution (§6).

Interpretation decisions still happen at run time (unlike the generated
tier), but once per *batch* rather than once per tuple — the classic
vectorized-execution trade-off.

Null semantics mirror the Volcano interpreter: comparisons with a missing
value are false, arithmetic over a missing value is missing and aggregates
skip missing inputs.  In columnar buffers "missing" is ``None`` inside object
columns or NaN inside float columns (the JSON plug-in's encoding of absent
numeric fields).

Shapes this tier does not cover (record construction in output columns, outer
joins, grouping on keys containing nulls, group-by output columns that are
neither keys nor aggregates) raise :class:`VectorizationError`, and the
engine falls back to the Volcano interpreter.  Unnests — inner and outer —
are covered batch-natively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.caching.matching import field_cache_key
from repro.core.analysis.model import EMPTY_HINTS, NullabilityHints
from repro.core.concurrency import make_lock
from repro.core.aggregate_utils import (
    AggregateAccumulators,
    literal_results,
    replace_aggregates,
    unique_output_columns,
)
from repro.core.executor import radix
from repro.core.expressions import (
    AggregateCall,
    BinaryOp,
    Expression,
    FieldRef,
    IfThenElse,
    Literal,
    Parameter,
    UnaryOp,
    contains_aggregate,
    iter_aggregates,
    parameter_env,
)
from repro.core.parallel.morsels import Morsel, plan_morsels
from repro.core.parallel.scheduler import WorkerPool
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
    unwrap_sort,
)
from repro.core.sort import (
    STRATEGY_PARALLEL_MERGE,
    TopKAccumulator,
    concat_chunks,
    merge_encodable,
    merge_sorted_runs,
    resolve_limit,
    sort_columns,
)
from repro.core.types import python_value as _python_value
from repro.errors import ExecutionError, PluginError, VectorizationError
from repro.obs.instrument import traced_scan, traced_stage
from repro.obs.trace import TraceBuilder
from repro.plugins.base import FieldPath, InputPlugin, flatten_collections
from repro.storage.catalog import Catalog, Dataset

DEFAULT_BATCH_SIZE = 4096

#: Synthetic binding under which computed per-group aggregate results are
#: exposed when finishing group-by output columns (mirrors the codegen tier).
_AGG_BINDING = "__agg__"

#: Virtual-buffer key: (binding, field path).
ColumnKey = tuple[str, tuple[str, ...]]


@dataclass
class Batch:
    """One columnar batch flowing between operators."""

    count: int
    columns: dict[ColumnKey, np.ndarray] = field(default_factory=dict)
    #: Per-binding global row positions (for lazy access and unnesting).
    oids: dict[str, np.ndarray] = field(default_factory=dict)
    #: Bound query-parameter values (``Parameter`` nodes evaluate against
    #: this); shared by every batch of one execution, never copied.
    params: Mapping[int | str, object] | None = None

    def take(self, selector: np.ndarray) -> "Batch":
        """Gather rows by boolean mask or integer positions."""
        taken = Batch(count=0, params=self.params)
        for key, column in self.columns.items():
            taken.columns[key] = column[selector]
        for binding, oids in self.oids.items():
            taken.oids[binding] = oids[selector]
        if selector.dtype == np.bool_:
            taken.count = int(selector.sum())
        else:
            taken.count = len(selector)
        return taken


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------

_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))

def _is_object_array(value: Any) -> bool:
    return isinstance(value, np.ndarray) and value.dtype == object


def materialize(value: Any, count: int) -> np.ndarray:
    """Broadcast an evaluation result to a full column of ``count`` rows."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    if isinstance(value, np.ndarray):  # 0-d array
        value = value.item()
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (bool, int, float)):
        return np.full(count, value)
    column = np.empty(count, dtype=object)
    column[:] = [value] * count
    return column


def as_bool_array(value: Any, count: int) -> np.ndarray:
    """Coerce an evaluation result to a boolean mask of ``count`` rows.
    Missing values are false (see :func:`radix.bool_mask`)."""
    return radix.bool_mask(materialize(value, count))


def evaluate_batch(expression: Expression, batch: Batch) -> Any:
    """Evaluate an expression over a batch; returns a column or a scalar."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, Parameter):
        params = batch.params
        if params is None or expression.key not in params:
            raise ExecutionError(
                f"query parameter {expression.display} is not bound"
            )
        return params[expression.key]
    if isinstance(expression, FieldRef):
        key = (expression.binding, tuple(expression.path))
        column = batch.columns.get(key)
        if column is None:
            raise VectorizationError(
                f"no batch column holds {expression!r}; available: "
                f"{sorted(batch.columns)}"
            )
        return column
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, batch)
    if isinstance(expression, UnaryOp):
        value = evaluate_batch(expression.operand, batch)
        if expression.op == "not":
            return ~as_bool_array(value, batch.count)
        return radix.null_safe_neg(value)
    if isinstance(expression, IfThenElse):
        condition = as_bool_array(evaluate_batch(expression.condition, batch), batch.count)
        then = materialize(evaluate_batch(expression.then, batch), batch.count)
        otherwise = materialize(evaluate_batch(expression.otherwise, batch), batch.count)
        return np.where(condition, then, otherwise)
    if isinstance(expression, AggregateCall):
        raise VectorizationError(
            "aggregate calls are evaluated by the Reduce/Nest batch operators"
        )
    raise VectorizationError(
        f"the vectorized executor cannot evaluate expression {expression!r}"
    )


def _evaluate_binary(expression: BinaryOp, batch: Batch) -> Any:
    if expression.op == "and":
        left = as_bool_array(evaluate_batch(expression.left, batch), batch.count)
        right = as_bool_array(evaluate_batch(expression.right, batch), batch.count)
        return left & right
    if expression.op == "or":
        left = as_bool_array(evaluate_batch(expression.left, batch), batch.count)
        right = as_bool_array(evaluate_batch(expression.right, batch), batch.count)
        return left | right
    left = evaluate_batch(expression.left, batch)
    right = evaluate_batch(expression.right, batch)
    if expression.op in _COMPARISONS:
        return radix.null_safe_compare(expression.op, left, right)
    return radix.null_safe_arith(expression.op, left, right)


def _valid_mask(values: np.ndarray) -> np.ndarray | None:
    """Mask of non-missing entries, or ``None`` when everything is valid."""
    mask = radix.missing_mask(values)
    return None if mask is None else ~mask


def _apply_predicate(batch: Batch, predicate: Expression) -> Batch | None:
    """Filter a batch by a predicate; ``None`` when nothing survives."""
    mask = as_bool_array(evaluate_batch(predicate, batch), batch.count)
    if not mask.any():
        return None
    if mask.all():
        return batch
    return batch.take(mask)


def _gather_joined(
    left: Batch, right: Batch, left_positions: np.ndarray, right_positions: np.ndarray
) -> Batch:
    """Assemble a join output batch by gathering both sides."""
    joined = Batch(
        count=len(left_positions),
        params=right.params if right.params is not None else left.params,
    )
    for key, column in left.columns.items():
        joined.columns[key] = column[left_positions]
    for binding, oids in left.oids.items():
        joined.oids[binding] = oids[left_positions]
    for key, column in right.columns.items():
        joined.columns[key] = column[right_positions]
    for binding, oids in right.oids.items():
        joined.oids[binding] = oids[right_positions]
    return joined


def concat_batches(batches: list[Batch]) -> Batch:
    """Concatenate a list of batches into one (join build sides)."""
    if not batches:
        return Batch(count=0)
    if len(batches) == 1:
        return batches[0]
    merged = Batch(
        count=sum(batch.count for batch in batches), params=batches[0].params
    )
    for key in batches[0].columns:
        merged.columns[key] = np.concatenate(
            [batch.columns[key] for batch in batches]
        )
    for binding in batches[0].oids:
        merged.oids[binding] = np.concatenate(
            [batch.oids[binding] for batch in batches]
        )
    return merged


# ---------------------------------------------------------------------------
# Pipeline counters
# ---------------------------------------------------------------------------


@dataclass
class PipelineCounters:
    """Execution counters produced while running a pipeline.

    Every stage writes into the counters object it is *passed* rather than
    into shared executor state, so concurrent workers can run the same
    pipeline with independent counters and merge them afterwards.
    """

    rows_scanned: int = 0
    batches_processed: int = 0
    values_extracted: int = 0
    values_from_cache: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
    groups_built: int = 0
    output_rows: int = 0
    rows_sorted: int = 0
    unnest_output_rows: int = 0

    def merge(self, other: "PipelineCounters") -> None:
        self.rows_scanned += other.rows_scanned
        self.batches_processed += other.batches_processed
        self.values_extracted += other.values_extracted
        self.values_from_cache += other.values_from_cache
        self.join_build_rows += other.join_build_rows
        self.join_output_rows += other.join_output_rows
        self.groups_built += other.groups_built
        self.output_rows += other.output_rows
        self.rows_sorted += other.rows_sorted
        self.unnest_output_rows += other.unnest_output_rows


# ---------------------------------------------------------------------------
# Scan operator (the batch source of every pipeline)
# ---------------------------------------------------------------------------


class ScanOperator:
    """Produces the batch stream of one :class:`PhysScan`.

    The operator consults the adaptive cache the way the generated tier's
    ``rt.scan`` does: field columns held by the caching manager are served
    (and counted as hits) instead of re-extracted, remaining fields are
    scanned through the plug-in, and columns extracted by a *complete* scan
    are admitted to the cache afterwards (:meth:`store_materialized`).

    Batch production is side-effect-free apart from the counters argument and
    the (lock-guarded) materialization recorder, so multiple workers may pull
    disjoint row ranges concurrently via :meth:`iter_range`.
    """

    def __init__(
        self,
        plan: PhysScan,
        dataset: Dataset,
        plugin: InputPlugin,
        cache_manager=None,
        params: Mapping[int | str, object] | None = None,
        context=None,
    ):
        self.plan = plan
        self.binding = plan.binding
        self.dataset = dataset
        self.plugin = plugin
        self.cache_manager = cache_manager
        self.params = params
        #: Per-query resilience context; checked once per produced batch.
        self.context = context
        self.paths = [tuple(path) for path in plan.paths]
        self._cached: dict[FieldPath, np.ndarray] = {}
        if cache_manager is not None and plugin.format_name != "cache":
            for path in self.paths:
                entry = cache_manager.lookup(field_cache_key(dataset.name, path))
                if entry is not None:
                    self._cached[path] = entry.data
        self._uncached = [path for path in self.paths if path not in self._cached]
        if self._cached and not self._uncached:
            self.total_rows = len(next(iter(self._cached.values())))
        else:
            self.total_rows = plugin.scan_row_count(dataset)
        # Chunk recorder for cache materialization: worth the references only
        # when the manager could admit at least one column of this format.
        self._record: dict[FieldPath, dict[int, np.ndarray]] = {}
        self._record_lock = make_lock("ScanOperator._record_lock")
        if (
            cache_manager is not None
            and plugin.format_name != "cache"
            and self._uncached
            and (
                cache_manager.policy.should_cache_field(plugin.format_name, "float")
                or cache_manager.policy.should_cache_field(plugin.format_name, "string")
            )
        ):
            self._record = {path: {} for path in self._uncached}

    @property
    def fully_cached(self) -> bool:
        return bool(self._cached) and not self._uncached

    def iter_range(
        self, start: int, stop: int, counters: PipelineCounters, batch_size: int
    ) -> Iterator[Batch]:
        """The batch stream of global rows ``[start, stop)``: one morsel, or
        the whole scan when nothing fans out."""
        if self.fully_cached:
            yield from self._iter_cached(start, stop, counters, batch_size)
            return
        for buffers in self._metered(
            self.plugin.scan_batch_ranges(
                self.dataset, self._uncached, start, stop, batch_size=batch_size
            )
        ):
            batch = self._to_batch(buffers, counters)
            if batch is not None:
                if self.context is not None:
                    self.context.note_batch(batch.count)
                yield batch

    def _metered(self, stream):
        """Charge the time spent inside the plug-in's stream — the raw-data
        parse cost — and the produced bytes to the plug-in's scan metrics.
        One flush per stream keeps the accounting off the per-batch path."""
        seconds = 0.0
        nbytes = 0
        try:
            while True:
                started = time.perf_counter()
                try:
                    buffers = next(stream)
                except StopIteration:
                    seconds += time.perf_counter() - started
                    return
                seconds += time.perf_counter() - started
                for column in buffers.columns.values():
                    nbytes += getattr(column, "nbytes", 0)
                yield buffers
        finally:
            self.plugin.record_scan(seconds, nbytes)

    def _iter_cached(
        self, start: int, stop: int, counters: PipelineCounters, batch_size: int
    ) -> Iterator[Batch]:
        for begin in range(start, stop, batch_size):
            end = min(begin + batch_size, stop)
            batch = Batch(count=end - begin, params=self.params)
            batch.oids[self.binding] = np.arange(begin, end, dtype=np.int64)
            for path, full in self._cached.items():
                batch.columns[(self.binding, path)] = full[begin:end]
            counters.values_from_cache += (end - begin) * len(self._cached)
            counters.batches_processed += 1
            if self.context is not None:
                self.context.note_batch(batch.count)
            yield batch

    def _to_batch(self, buffers, counters: PipelineCounters) -> Batch | None:
        if buffers.count == 0:
            return None
        batch = Batch(count=buffers.count, params=self.params)
        oids = np.asarray(buffers.oids, dtype=np.int64)
        batch.oids[self.binding] = oids
        start = int(oids[0]) if len(oids) else 0
        contiguous = len(oids) == 0 or int(oids[-1]) - start == buffers.count - 1
        for path in self._uncached:
            column = buffers.column(path)
            batch.columns[(self.binding, path)] = column
            if path in self._record and contiguous:
                with self._record_lock:
                    self._record[path][start] = column
        if self._cached:
            for path, full in self._cached.items():
                batch.columns[(self.binding, path)] = full[oids]
            counters.values_from_cache += buffers.count * len(self._cached)
        counters.rows_scanned += buffers.count
        counters.values_extracted += buffers.count * len(self._uncached)
        counters.batches_processed += 1
        return batch

    def store_materialized(self) -> None:
        """Admit columns covered by a complete scan to the adaptive cache.

        Called on the main thread after execution finished; chunks that do not
        cover the dataset contiguously (an abandoned stream, a failed morsel)
        are silently dropped — caching is best-effort.
        """
        manager = self.cache_manager
        if manager is None or not self._record:
            return
        with self._record_lock:
            record, self._record = self._record, {}
        for path, chunks in record.items():
            if not chunks:
                continue
            starts = sorted(chunks)
            covered = 0
            for start in starts:
                if start != covered:
                    covered = -1
                    break
                covered += len(chunks[start])
            if covered != self.total_rows:
                continue
            column = (
                chunks[starts[0]]
                if len(starts) == 1
                else np.concatenate([chunks[start] for start in starts])
            )
            if not manager.policy.should_cache_field(
                self.plugin.format_name, _cache_type_name(column)
            ):
                continue
            manager.store(
                field_cache_key(self.dataset.name, path),
                column,
                kind="field",
                dataset=self.dataset.name,
                source_format=self.plugin.format_name,
                description=f"{self.dataset.name}.{'.'.join(path)}",
            )


def _cache_type_name(column: np.ndarray) -> str:
    """Type label a column gets for the cache-admission policy (mirrors the
    generated tier's classification)."""
    if column.dtype == object:
        return "string"
    if column.dtype.kind == "b":
        return "bool"
    if column.dtype.kind in "iu":
        return "int"
    return "float"


# ---------------------------------------------------------------------------
# Per-batch pipeline stages
# ---------------------------------------------------------------------------


class SelectStage:
    """Filter each batch by a predicate."""

    def __init__(self, predicate: Expression):
        self.predicate = predicate

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        return _apply_predicate(batch, self.predicate)


class UnnestStage:
    """Flatten a nested collection of the parent binding into each batch.

    Batch-native: the plug-in's ``scan_unnest_batch`` returns flattened
    element buffers plus one repeat count per parent, and the parent columns
    are broadcast with a single ``np.repeat`` per batch — no per-parent
    round-trips.  Two source modes:

    * **scan-backed** (``plugin`` is set) — the parent binding's OIDs address
      the raw source directly; the plug-in flattens with its native
      offset-vector implementation (or the generic per-parent fallback).
    * **column-backed** (``plugin`` is ``None``) — the parent binding is
      itself an unnest variable (nested-in-nested); the collection was
      materialized as an object column by the parent stage and is flattened
      in memory by :func:`repro.plugins.base.flatten_collections`.

    Outer unnest emits one null child row for parents whose collection is
    empty or missing, matching the Volcano interpreter.  An outer unnest
    carrying a pushed-down element predicate is not vectorized (the planner
    never produces that shape; hand-built plans fall back to Volcano).
    """

    def __init__(
        self,
        plan: PhysUnnest,
        dataset: Dataset | None,
        plugin: InputPlugin | None,
    ):
        self.binding = plan.binding
        self.path = plan.path
        self.var = plan.var
        self.element_paths = [tuple(path) for path in plan.element_paths]
        self.predicate = plan.predicate
        self.outer = plan.outer
        self.dataset = dataset
        self.plugin = plugin
        if self.outer and self.predicate is not None:
            raise VectorizationError(
                "outer unnest with an element predicate is served by the "
                "Volcano interpreter"
            )

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        try:
            if self.plugin is not None:
                parent_oids = batch.oids.get(self.binding)
                if parent_oids is None:
                    raise VectorizationError(
                        f"no OID column for unnest binding {self.binding!r}"
                    )
                started = time.perf_counter()
                buffers = self.plugin.scan_unnest_batch(
                    self.dataset,
                    self.path,
                    self.element_paths,
                    parent_oids,
                    outer=self.outer,
                )
                self.plugin.record_scan(
                    time.perf_counter() - started,
                    sum(
                        getattr(column, "nbytes", 0)
                        for column in buffers.columns.values()
                    ),
                )
            else:
                collection = batch.columns.get((self.binding, self.path))
                if collection is None:
                    raise VectorizationError(
                        f"no materialized collection column for "
                        f"{self.binding!r}.{'.'.join(self.path)}"
                    )
                buffers = flatten_collections(
                    collection, self.element_paths, outer=self.outer
                )
        except PluginError as exc:
            raise VectorizationError(str(exc)) from exc
        if buffers.count == 0:
            return None
        flattened = batch.take(buffers.parent_positions())
        for path in self.element_paths:
            flattened.columns[(self.var, path)] = buffers.column(path)
        counters.rows_scanned += buffers.count
        counters.unnest_output_rows += buffers.count
        if self.predicate is not None:
            return _apply_predicate(flattened, self.predicate)
        return flattened


class HashJoinStage:
    """Probe an already-built radix table with each batch.

    The build side (a materialized :class:`Batch` plus its radix table) is
    immutable once constructed, so any number of workers can probe it
    concurrently.
    """

    def __init__(
        self,
        build: Batch,
        table: radix.RadixTable,
        build_kind: str,
        right_key: Expression,
        residual: Expression | None,
    ):
        self.build = build
        self.table = table
        self.build_kind = build_kind
        self.right_key = right_key
        self.residual = residual

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        right_keys = _join_keys(evaluate_batch(self.right_key, batch), batch.count)
        probe_keys, kept = _align_probe_keys(self.build_kind, right_keys)
        left_positions, right_positions = radix.probe_radix_table(
            self.table, probe_keys
        )
        if len(left_positions) == 0:
            return None
        if kept is not None:
            right_positions = kept[right_positions]
        counters.join_output_rows += len(left_positions)
        joined = _gather_joined(self.build, batch, left_positions, right_positions)
        if self.residual is not None:
            return _apply_predicate(joined, self.residual)
        return joined


class NestedLoopJoinStage:
    """Cross-product each batch against a materialized build side."""

    def __init__(self, build: Batch, predicate: Expression | None):
        self.build = build
        self.predicate = predicate

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        left = self.build
        left_positions = np.repeat(
            np.arange(left.count, dtype=np.int64), batch.count
        )
        right_positions = np.tile(
            np.arange(batch.count, dtype=np.int64), left.count
        )
        joined = _gather_joined(left, batch, left_positions, right_positions)
        if self.predicate is not None:
            return _apply_predicate(joined, self.predicate)
        return joined


@dataclass
class CompiledPipeline:
    """One scan source plus the per-batch stages applied to its stream.

    ``always_empty`` marks pipelines that provably produce nothing (an inner
    join whose build side materialized to zero rows); callers skip scanning
    entirely, exactly as the pre-pipeline executor did.
    """

    source: ScanOperator
    stages: list
    always_empty: bool = False
    #: Per-query resilience context, checked once per processed batch so a
    #: deadline/cancellation interrupts between stages of the pipeline.
    context: "object | None" = None

    def process(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        if self.context is not None:
            self.context.check()
        for stage in self.stages:
            batch = stage.apply(batch, counters)
            if batch is None:
                return None
        return batch


class PipelineCompiler:
    """Lower a physical plan subtree into a :class:`CompiledPipeline`.

    Join build sides are materialized *during* compilation (they are blocking
    operators), through the injected ``materializer``; the executor fans
    their scans across its worker pool when they split, and builds the radix
    table partition-parallel via ``table_builder``.
    """

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        counters: PipelineCounters,
        materializer: Callable[[CompiledPipeline], Batch],
        table_builder: Callable[[np.ndarray], radix.RadixTable],
        cache_manager=None,
        params: Mapping[int | str, object] | None = None,
        trace: TraceBuilder | None = None,
        context=None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.cache_manager = cache_manager
        self.counters = counters
        self.materializer = materializer
        self.table_builder = table_builder
        #: Bound query-parameter values, attached to every scan batch.
        self.params = params
        #: Per-query resilience context, handed to every scan operator and
        #: compiled pipeline so batch production observes deadline/cancel.
        self.context = context
        #: Span trace of the current execution; ``None`` (the default) keeps
        #: every compiled stage unwrapped — tracing costs nothing when off.
        self.trace = trace
        #: Every scan operator created while compiling (driving scan and all
        #: build-side scans) — the executor flushes their cache
        #: materializations after a successful run.
        self.scan_operators: list[ScanOperator] = []

    def compile(self, plan: PhysicalPlan) -> CompiledPipeline:
        if isinstance(plan, PhysScan):
            return CompiledPipeline(
                traced_scan(self.trace, plan, self._scan_operator(plan)),
                [],
                context=self.context,
            )
        if isinstance(plan, PhysSelect):
            pipeline = self.compile(plan.child)
            pipeline.stages.append(
                traced_stage(self.trace, plan, SelectStage(plan.predicate))
            )
            return pipeline
        if isinstance(plan, PhysUnnest):
            try:
                dataset, plugin = self._scan_source(plan, plan.binding)
            except VectorizationError:
                # The parent binding is itself an unnest variable
                # (nested-in-nested): the collection travels as a
                # materialized object column instead of plug-in OIDs.
                dataset = plugin = None
            pipeline = self.compile(plan.child)
            pipeline.stages.append(
                traced_stage(self.trace, plan, UnnestStage(plan, dataset, plugin))
            )
            return pipeline
        if isinstance(plan, PhysHashJoin):
            if plan.outer:
                raise VectorizationError(
                    "outer join is served by the Volcano interpreter"
                )
            left = self.materializer(self.compile(plan.left))
            pipeline = self.compile(plan.right)
            if left.count == 0 or pipeline.always_empty:
                # An inner join with an empty build side produces nothing;
                # bail out before key evaluation (an empty Batch has no
                # columns, which would needlessly demote the query to the
                # Volcano tier).
                pipeline.always_empty = True
                return pipeline
            left_keys = _join_keys(evaluate_batch(plan.left_key, left), left.count)
            table = self.table_builder(left_keys)
            self.counters.join_build_rows += left.count
            pipeline.stages.append(
                traced_stage(
                    self.trace,
                    plan,
                    HashJoinStage(
                        left, table, left_keys.dtype.kind, plan.right_key,
                        plan.residual,
                    ),
                )
            )
            return pipeline
        if isinstance(plan, PhysNestedLoopJoin):
            if plan.outer:
                raise VectorizationError(
                    "outer join is served by the Volcano interpreter"
                )
            left = self.materializer(self.compile(plan.left))
            pipeline = self.compile(plan.right)
            if left.count == 0 or pipeline.always_empty:
                pipeline.always_empty = True
                return pipeline
            pipeline.stages.append(
                traced_stage(
                    self.trace, plan, NestedLoopJoinStage(left, plan.predicate)
                )
            )
            return pipeline
        raise VectorizationError(
            f"cannot interpret operator {plan.describe()} over batches"
        )

    def store_scan_caches(self) -> None:
        """Flush the scan operators' cache materializations (main thread)."""
        for operator in self.scan_operators:
            operator.store_materialized()

    # -- helpers -------------------------------------------------------------

    def _scan_operator(self, plan: PhysScan) -> ScanOperator:
        dataset = self.catalog.get(plan.dataset)
        plugin = self.plugins.get(dataset.format)
        if plugin is None:
            raise ExecutionError(f"no plug-in registered for format {dataset.format!r}")
        operator = ScanOperator(
            plan, dataset, plugin, self.cache_manager, params=self.params,
            context=self.context,
        )
        self.scan_operators.append(operator)
        return operator

    def _scan_source(
        self, plan: PhysicalPlan, binding: str
    ) -> tuple[Dataset, InputPlugin]:
        for node in plan.walk():
            if isinstance(node, PhysScan) and node.binding == binding:
                dataset = self.catalog.get(node.dataset)
                plugin = self.plugins.get(dataset.format)
                if plugin is None:
                    raise ExecutionError(
                        f"no plug-in registered for format {dataset.format!r}"
                    )
                return dataset, plugin
        raise VectorizationError(
            f"binding {binding!r} is not backed by a scan in this plan"
        )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

#: Below this many build-side keys a partition-parallel table build costs
#: more in scheduling than it saves in sorting.
MIN_PARALLEL_BUILD_KEYS = 8192


class VectorizedExecutor:
    """Batch-vectorized interpreter over physical plans.

    ``num_workers`` is the degree of morsel-driven parallelism.  An execution
    fans out only when ``num_workers > 1`` and :func:`plan_morsels` splits
    the driving scan into more than one morsel; join build sides fan out
    under the same rule.  Otherwise the same plan root runs in the calling
    thread over the scan's whole row range.
    """

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_workers: int = 1,
        cache_manager=None,
        params: Mapping[int | str, object] | None = None,
        hints: NullabilityHints | None = None,
        trace: TraceBuilder | None = None,
        context=None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.batch_size = max(int(batch_size), 1)
        self.num_workers = max(int(num_workers), 1)
        self.cache_manager = cache_manager
        self.params = params
        #: Per-query resilience context (deadline/cancel): checked per batch
        #: inside pipelines and per morsel by the workers; the pool observes
        #: it next to its error-cancel event so teardown drains cleanly.
        self.context = context
        #: Static nullability hints from the plan analyzer: output columns /
        #: aggregate arguments proven non-nullable skip missing-mask work.
        self.hints = hints if hints is not None else EMPTY_HINTS
        #: Span trace of this execution (``None`` = untraced, zero overhead).
        #: Traced stages are shared by every worker; their span accumulators
        #: are locked, so per-morsel work aggregates into one span per
        #: operator.
        self.trace = trace
        #: Counters mirrored into the engine's :class:`ExecutionProfile`.
        self.counters = PipelineCounters()
        #: Morsels executed / obtained by stealing (0 without a fan-out).
        self.morsels_dispatched = 0
        self.morsels_stolen = 0
        #: Whether any work of this execution ran on the worker pool.
        self.fanned_out = False
        #: Sort kernel this executor ran for a root ``PhysSort`` (``None``
        #: when the engine's columnar epilogue should handle the sort — small
        #: grouped/aggregated outputs are cheaper to sort once materialized).
        self.sort_strategy: str | None = None
        self._pool = WorkerPool(self.num_workers)

    # -- public API ----------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> tuple[list[str], dict[str, Any]]:
        """Execute a plan; returns (column names, column values)."""
        root = _make_root(plan, self.params, self.hints)
        compiler = PipelineCompiler(
            self.catalog,
            self.plugins,
            self.counters,
            self._materialize,
            self._build_table,
            cache_manager=self.cache_manager,
            params=self.params,
            trace=self.trace,
            context=self.context,
        )
        pipeline = compiler.compile(unwrap_sort(plan).child)
        names, columns = self._run_root(root, pipeline)
        self.sort_strategy = root.sort_strategy
        compiler.store_scan_caches()
        return names, columns

    # -- execution -------------------------------------------------------------

    def _run_root(self, root: "_Root", pipeline: CompiledPipeline) -> Any:
        """Drive ``pipeline`` into ``root``: per morsel on the worker pool
        when the driving scan fans out, else as one partial in this thread."""
        morsels = self._plan_morsels(pipeline)
        if morsels is None:
            state = root.new_state()
            if not pipeline.always_empty:
                source = pipeline.source
                stream = source.iter_range(0, source.total_rows, self.counters, self.batch_size)
                _drain(root, state, pipeline, stream, self.counters)
            return root.merge([root.finish_morsel(state, self.counters)], self.counters)

        def run_morsel(morsel: Morsel, worker_id: int):
            if self.context is not None:
                self.context.check()
            counters = PipelineCounters()
            state = root.new_state()
            stream = pipeline.source.iter_range(
                morsel.start, morsel.stop, counters, self.batch_size
            )
            _drain(root, state, pipeline, stream, counters)
            if self.context is not None:
                self.context.count("morsels")
            return root.finish_morsel(state, counters), counters

        results = self._pool.run(morsels, run_morsel, context=self.context)
        self.fanned_out = True
        self.morsels_dispatched += len(morsels)
        self.morsels_stolen += self._pool.last_stolen
        for _, counters in results:
            self.counters.merge(counters)
        return root.merge([partial for partial, _ in results], self.counters)

    def _plan_morsels(self, pipeline: CompiledPipeline) -> list[Morsel] | None:
        """The driving scan's morsels, or ``None`` when nothing fans out."""
        if self.num_workers <= 1 or pipeline.always_empty:
            return None
        morsels = plan_morsels(pipeline.source.total_rows, self.batch_size, self.num_workers)
        return morsels if len(morsels) > 1 else None

    def _materialize(self, pipeline: CompiledPipeline) -> Batch:
        """Materialize a join build side.  Morsel results concatenate in
        morsel order, so every radix-table position matches a serial build."""
        return self._run_root(_CollectRoot(), pipeline)

    def _build_table(self, keys: np.ndarray) -> radix.RadixTable:
        """Radix-table build.  With workers, the hash partitioning runs once
        and the per-partition sort-clustering fans out; the resulting table
        is identical to a serial build."""
        keys = np.asarray(keys)
        if self.num_workers <= 1 or len(keys) < MIN_PARALLEL_BUILD_KEYS:
            return radix.build_radix_table(keys)
        radix.reject_missing_keys(keys, "join")
        num_partitions = 1 << radix.DEFAULT_RADIX_BITS
        assignment = radix.partition_assignment(keys, num_partitions)
        position_lists = [
            np.nonzero(assignment == partition_id)[0]
            for partition_id in range(num_partitions)
        ]
        partitions = self._pool.run(
            position_lists,
            lambda positions, worker_id: radix.cluster_partition(keys, positions),
            context=self.context,
        )
        self.fanned_out = True
        return radix.RadixTable(
            partitions=partitions,
            num_partitions=num_partitions,
            build_size=len(keys),
        )


def _drain(
    root: "_Root",
    state: Any,
    pipeline: CompiledPipeline,
    stream: Iterator[Batch],
    counters: PipelineCounters,
) -> None:
    """Feed a scan batch stream through the pipeline into one root state."""
    for batch in stream:
        out = pipeline.process(batch, counters)
        if out is not None:
            root.update(state, out, counters)
            if root.saturated(state):
                # The partial is complete (e.g. a pure LIMIT prefix); stop
                # scanning the remaining rows.
                break


# ---------------------------------------------------------------------------
# Plan roots: partial states and their ordered merges
# ---------------------------------------------------------------------------


def _make_root(
    plan: PhysicalPlan,
    params: Mapping[int | str, object] | None,
    hints: NullabilityHints,
) -> "_Root":
    sort_plan = plan if isinstance(plan, PhysSort) else None
    plan = unwrap_sort(plan)
    if isinstance(plan, PhysNest):
        return _NestRoot(plan, params)
    if not isinstance(plan, PhysReduce):
        raise ExecutionError(
            f"the plan root must be Reduce or Nest, got {plan.describe()}"
        )
    if any(contains_aggregate(column.expression) for column in plan.columns):
        return _GlobalAggregateRoot(plan, params, hints)
    limit = resolve_limit(sort_plan.limit, params) if sort_plan is not None else None
    if sort_plan is not None and sort_plan.keys and limit != 0:
        return _SortedProjectionRoot(
            plan, sort_plan.keys, limit, hints.non_null_columns
        )
    # Pure LIMIT, and ORDER BY ... LIMIT 0 (which produces nothing), bound
    # the emitted prefix; the engine's epilogue slices the exact rows.
    return _ProjectionRoot(plan, limit)


class _Root:
    """Protocol of a plan root.

    ``new_state``/``update``/``finish_morsel`` build one partial over one
    batch stream — a morsel inside a worker, or the whole scan in the
    calling thread; ``merge`` runs on the calling thread and consumes the
    partials in morsel order.  A single partial is returned as it is, so
    serial execution runs the serial kernels and reports their counters.
    """

    #: The sort kernel the root ran (``None`` when it sorted nothing).
    sort_strategy: str | None = None

    def new_state(self) -> Any:
        raise NotImplementedError

    def update(self, state: Any, batch: Batch, counters: PipelineCounters) -> None:
        raise NotImplementedError

    def saturated(self, state: Any) -> bool:
        """Whether this partial is complete — further batches cannot change
        it, so the scan feeding it may stop."""
        return False

    def finish_morsel(self, state: Any, counters: PipelineCounters) -> Any:
        return state

    def merge(self, partials: list, counters: PipelineCounters) -> Any:
        raise NotImplementedError


class _CollectRoot(_Root):
    """A join build side: the pipeline's output batches, concatenated."""

    def new_state(self) -> list[Batch]:
        return []

    def update(self, state: list, batch: Batch, counters: PipelineCounters) -> None:
        state.append(batch)

    def merge(self, partials: list, counters: PipelineCounters) -> Batch:
        return concat_batches([batch for batches in partials for batch in batches])


class _ProjectionRoot(_Root):
    """Reduce without aggregates: column chunks, concatenated in morsel
    order (bit-identical to a serial scan).

    ``limit`` (pure LIMIT, or ``ORDER BY ... LIMIT 0``) truncates each
    partial to its first ``limit`` rows: any morsel-order prefix of the
    result only needs a prefix of every morsel.
    """

    def __init__(self, plan: PhysReduce, limit: int | None = None):
        self.names = [column.name for column in plan.columns]
        self.unique_columns = unique_output_columns(plan.columns)
        self.limit = limit

    def new_state(self) -> dict:
        return {"chunks": {name: [] for name in self.names}, "total": 0}

    def update(self, state: dict, batch: Batch, counters: PipelineCounters) -> None:
        for column in self.unique_columns:
            state["chunks"][column.name].append(
                materialize(evaluate_batch(column.expression, batch), batch.count)
            )
        state["total"] += batch.count

    def saturated(self, state: dict) -> bool:
        # LIMIT 0 still takes one batch, so the truncated empty buffers
        # keep their dtypes.
        return self.limit is not None and state["total"] >= max(self.limit, 1)

    def finish_morsel(self, state: dict, counters: PipelineCounters) -> dict:
        if self.limit is not None and state["total"] > self.limit:
            truncated = {
                name: [concat_chunks(state["chunks"][name])[: self.limit]]
                for name in self.names
            }
            state = {"chunks": truncated, "total": self.limit}
        return state

    def merge(self, partials: list, counters: PipelineCounters):
        total = sum(partial["total"] for partial in partials)
        counters.output_rows += total if self.limit is None else min(total, self.limit)
        columns = {
            name: concat_chunks(
                [chunk for partial in partials for chunk in partial["chunks"][name]]
            )
            for name in self.names
        }
        return self.names, columns


class _SortedProjectionRoot(_Root):
    """Projection under ORDER BY (and optionally a positive LIMIT): sorted
    runs, merged deterministically.

    Under a LIMIT each partial streams its batches through the bounded
    :class:`TopKAccumulator`, so at most K rows per morsel reach the merge.
    Without one, a run is sorted where it is built when its single key is
    merge-encodable, and handed over raw otherwise (multi-key and string
    runs are re-sorted as one concatenation).  Several runs meet in the
    k-way merge of :func:`repro.core.sort.merge_sorted_runs`, whose ties
    resolve in morsel order — the output is identical to a stable sort of
    the morsel-ordered concatenation at any worker count.
    """

    def __init__(
        self,
        plan: PhysReduce,
        keys: list[tuple[str, bool]],
        limit: int | None,
        non_null: frozenset[str] = frozenset(),
    ):
        self.projection = _ProjectionRoot(plan)
        self.names = self.projection.names
        self.keys = list(keys)
        self.limit = limit
        self.non_null = frozenset(non_null)

    def new_state(self) -> dict:
        if self.limit is not None:
            return {
                "topk": TopKAccumulator(
                    self.names, self.keys, self.limit, self.non_null
                )
            }
        return self.projection.new_state()

    def update(self, state: dict, batch: Batch, counters: PipelineCounters) -> None:
        accumulator = state.get("topk")
        if accumulator is None:
            self.projection.update(state, batch, counters)
            return
        columns = {
            column.name: materialize(
                evaluate_batch(column.expression, batch), batch.count
            )
            for column in self.projection.unique_columns
        }
        accumulator.push(columns, batch.count)

    def finish_morsel(
        self, state: dict, counters: PipelineCounters
    ) -> tuple[int, dict[str, Any], str | None]:
        """One run: ``(length, columns, strategy)``, strategy ``None`` for a
        run handed over unsorted."""
        accumulator = state.get("topk")
        if accumulator is not None:
            length, columns, strategy = accumulator.finish()
            counters.rows_sorted += accumulator.rows_sorted
            return length, columns, strategy
        length = state["total"]
        columns = {
            name: concat_chunks(state["chunks"][name]) for name in self.names
        }
        if length == 0 or len(self.keys) > 1 or not merge_encodable(
            columns[self.keys[0][0]]
        ):
            return length, columns, None
        return self._sort(length, columns, counters)

    def merge(self, partials: list, counters: PipelineCounters):
        runs = [partial for partial in partials if partial[0] > 0] or partials[:1]
        if len(runs) == 1:
            length, columns, strategy = runs[0]
            if strategy is None:
                length, columns, strategy = self._sort(length, columns, counters)
        else:
            length, columns, strategy = merge_sorted_runs(
                self.names,
                [(length, columns) for length, columns, _ in runs],
                self.keys,
                self.limit,
                self.non_null,
            )
            if strategy != STRATEGY_PARALLEL_MERGE:
                # The merge re-sorted the concatenation.
                counters.rows_sorted += sum(length for length, _, _ in runs)
        counters.output_rows += length
        self.sort_strategy = strategy
        return self.names, columns

    def _sort(
        self, length: int, columns: dict[str, Any], counters: PipelineCounters
    ) -> tuple[int, dict[str, Any], str | None]:
        counters.rows_sorted += length
        return sort_columns(
            self.names, length, columns, self.keys, self.limit, self.non_null
        )


class _GlobalAggregateRoot(_Root):
    """Reduce with aggregates: one running accumulator per partial, folded
    in morsel order and finalized into the single output row."""

    def __init__(
        self,
        plan: PhysReduce,
        params: Mapping[int | str, object] | None,
        hints: NullabilityHints,
    ):
        self.plan = plan
        self.params = params
        self.hints = hints
        self.names = [column.name for column in plan.columns]

    def new_state(self) -> "_BatchAggregates":
        return _BatchAggregates(
            self.plan.columns, self.hints.non_null_aggregate_args
        )

    def update(
        self, state: "_BatchAggregates", batch: Batch, counters: PipelineCounters
    ) -> None:
        state.update(batch)

    def merge(self, partials: list, counters: PipelineCounters):
        accumulators = partials[0]
        for partial in partials[1:]:
            accumulators.merge(partial)
        values = accumulators.finalize()
        counters.output_rows += 1
        finish_env = parameter_env(self.params)
        columns: dict[str, Any] = {}
        for column in self.plan.columns:
            final = replace_aggregates(column.expression, literal_results(values))
            columns[column.name] = [_python_value(final.evaluate(finish_env))]
        return self.names, columns


@dataclass
class _GroupPartial:
    """The groups of one partial, with their partial aggregates."""

    grouping: radix.GroupingResult
    #: fingerprint → per-group result column; ``avg`` is carried as its
    #: ``{"sum": ..., "count": ...}`` parts and divided once at the end.
    aggregates: dict[tuple, Any]


class _NestRoot(_Root):
    """Group-by: radix grouping + aggregates per partial, then — for several
    partials — a second-level grouped merge over the union of their groups.

    The merge functions are the aggregate monoids: partial counts are summed,
    partial sums summed, partial extrema re-reduced, partial booleans
    re-combined.  Group output order is the lexicographic key order
    ``radix_group`` produces, whatever the number of partials.
    """

    #: How a partial aggregate column is re-reduced across partials.
    _MERGE_FUNCS = {
        "count": "sum",
        "sum": "sum",
        "min": "min",
        "max": "max",
        "and": "and",
        "or": "or",
    }

    def __init__(
        self, plan: PhysNest, params: Mapping[int | str, object] | None
    ):
        self.plan = plan
        self.params = params
        self.names = [column.name for column in plan.columns]
        #: fingerprint → group-key index, and the unique aggregate calls.
        self.group_key_fingerprints = {
            expression.fingerprint(): index
            for index, expression in enumerate(plan.group_by)
        }
        self.aggregates: list[AggregateCall] = []
        seen: set[tuple] = set()
        for column in plan.columns:
            if column.expression.fingerprint() in self.group_key_fingerprints:
                continue
            if not contains_aggregate(column.expression):
                raise VectorizationError(
                    f"group-by output column {column.name!r} is neither a group "
                    "key nor an aggregate; served by the Volcano interpreter"
                )
            for aggregate in iter_aggregates(column.expression):
                if aggregate.fingerprint() not in seen:
                    seen.add(aggregate.fingerprint())
                    self.aggregates.append(aggregate)

    def new_state(self) -> dict:
        return {
            "key_chunks": [[] for _ in self.plan.group_by],
            "argument_chunks": {
                aggregate.fingerprint(): []
                for aggregate in self.aggregates
                if aggregate.argument is not None
            },
            "total": 0,
        }

    def update(self, state: dict, batch: Batch, counters: PipelineCounters) -> None:
        for index, expression in enumerate(self.plan.group_by):
            state["key_chunks"][index].append(
                materialize(evaluate_batch(expression, batch), batch.count)
            )
        for aggregate in self.aggregates:
            if aggregate.argument is None:
                continue
            state["argument_chunks"][aggregate.fingerprint()].append(
                materialize(evaluate_batch(aggregate.argument, batch), batch.count)
            )
        state["total"] += batch.count

    def finish_morsel(
        self, state: dict, counters: PipelineCounters
    ) -> _GroupPartial | None:
        if state["total"] == 0:
            return None  # an empty partial contributes no groups
        key_arrays = [np.concatenate(chunks) for chunks in state["key_chunks"]]
        # radix_group raises VectorizationError for keys containing missing
        # values, which the engine turns into a Volcano fallback.
        grouping = radix.radix_group(key_arrays)
        aggregates: dict[tuple, Any] = {}
        for aggregate in self.aggregates:
            fingerprint = aggregate.fingerprint()
            values = (
                np.concatenate(state["argument_chunks"][fingerprint])
                if aggregate.argument is not None
                else None
            )
            if aggregate.func == "avg":
                aggregates[fingerprint] = {
                    part: radix.group_aggregate(
                        part, grouping.group_ids, grouping.num_groups, values
                    )
                    for part in ("sum", "count")
                }
            else:
                aggregates[fingerprint] = radix.group_aggregate(
                    aggregate.func, grouping.group_ids, grouping.num_groups, values
                )
        return _GroupPartial(grouping, aggregates)

    def merge(self, partials: list, counters: PipelineCounters):
        partials = [partial for partial in partials if partial is not None]
        if not partials:
            return self.names, {name: [] for name in self.names}
        if len(partials) == 1:
            grouping = partials[0].grouping
            merged = partials[0].aggregates
        else:
            grouping, merged = self._merge_groups(partials)
        aggregate_results: dict[tuple, np.ndarray] = {}
        for aggregate in self.aggregates:
            fingerprint = aggregate.fingerprint()
            result = merged[fingerprint]
            if aggregate.func == "avg":
                result = radix.average(result["sum"], result["count"])
            aggregate_results[fingerprint] = result
        counters.groups_built += grouping.num_groups
        counters.output_rows += grouping.num_groups
        return self.names, self._finish_columns(grouping, aggregate_results)

    def _merge_groups(
        self, partials: list[_GroupPartial]
    ) -> tuple[radix.GroupingResult, dict[tuple, Any]]:
        grouping = radix.radix_group(
            [
                np.concatenate(
                    [partial.grouping.key_arrays[index] for partial in partials]
                )
                for index in range(len(self.plan.group_by))
            ]
        )

        def regroup(func: str, columns: list[np.ndarray]) -> np.ndarray:
            return radix.group_aggregate(
                self._MERGE_FUNCS[func],
                grouping.group_ids,
                grouping.num_groups,
                np.concatenate(columns),
            )

        merged: dict[tuple, Any] = {}
        for aggregate in self.aggregates:
            fingerprint = aggregate.fingerprint()
            columns = [partial.aggregates[fingerprint] for partial in partials]
            if aggregate.func == "avg":
                merged[fingerprint] = {
                    part: regroup("sum", [column[part] for column in columns])
                    for part in ("sum", "count")
                }
            else:
                merged[fingerprint] = regroup(aggregate.func, columns)
        return grouping, merged

    def _finish_columns(
        self,
        grouping: radix.GroupingResult,
        aggregate_results: dict[tuple, np.ndarray],
    ) -> dict[str, Any]:
        """Assemble the output columns from grouped keys and per-group
        aggregate result columns.

        Each aggregate's result column is exposed under a synthetic binding,
        then the heads are finished with the vectorized evaluator — this
        keeps arithmetic/logical combinations of aggregates (e.g. ``max(x) >
        5 and min(x) > 0``) on the batch path; the bound parameters keep
        query parameters in the heads (e.g. ``sum(x) * :rate``) evaluable.
        """
        group_batch = Batch(count=grouping.num_groups, params=self.params)
        results: dict[tuple, Expression] = {}
        for index, (fingerprint, values) in enumerate(aggregate_results.items()):
            reference = FieldRef(_AGG_BINDING, (f"agg_{index}",))
            group_batch.columns[(_AGG_BINDING, reference.path)] = np.asarray(values)
            results[fingerprint] = reference
        columns: dict[str, Any] = {}
        for column in self.plan.columns:
            fingerprint = column.expression.fingerprint()
            if fingerprint in self.group_key_fingerprints:
                index = self.group_key_fingerprints[fingerprint]
                columns[column.name] = grouping.key_arrays[index]
                continue
            final = replace_aggregates(column.expression, results)
            columns[column.name] = materialize(
                evaluate_batch(final, group_batch), grouping.num_groups
            )
        return columns


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


class _BatchAggregates(AggregateAccumulators):
    """Running global aggregates, updated one batch at a time.

    Same state and finalization as the Volcano accumulators (the shared base
    class), but folds whole batches with NumPy reductions instead of one
    ``update`` per tuple.  ``non_null_args`` carries the fingerprints of
    aggregate calls whose argument the static analyzer proved non-nullable:
    for those the per-batch valid-mask pass (a NaN scan over floats, a
    per-element probe over object columns) is skipped entirely.
    """

    def __init__(self, columns, non_null_args: frozenset[tuple] = frozenset()):
        super().__init__(columns)
        self.non_null_args = frozenset(non_null_args)

    def update(self, batch: Batch) -> None:
        self.count += batch.count
        for aggregate in self.aggregates:
            if aggregate.func == "count" and aggregate.argument is None:
                continue
            fingerprint = aggregate.fingerprint()
            values = materialize(
                evaluate_batch(aggregate.argument, batch), batch.count
            )
            valid = (
                None
                if fingerprint in self.non_null_args
                else _valid_mask(values)
            )
            if valid is not None:
                values = values[valid]
            if len(values) == 0:
                continue
            self.counts[fingerprint] += len(values)
            if aggregate.func in ("sum", "avg"):
                if values.dtype == object or (
                    values.dtype.kind in "iu"
                    and radix._int_sum_may_overflow(values)
                ):
                    batch_sum = sum(values.tolist())  # exact Python ints
                elif values.dtype.kind in "iub":
                    batch_sum = int(np.sum(values, dtype=np.int64))
                else:
                    batch_sum = float(np.sum(values.astype(np.float64)))
                self.sums[fingerprint] += batch_sum
            elif aggregate.func == "max":
                batch_max = _python_value(values.max())
                current = self.maxs.get(fingerprint)
                self.maxs[fingerprint] = (
                    batch_max if current is None else max(current, batch_max)
                )
            elif aggregate.func == "min":
                batch_min = _python_value(values.min())
                current = self.mins.get(fingerprint)
                self.mins[fingerprint] = (
                    batch_min if current is None else min(current, batch_min)
                )
            elif aggregate.func == "and":
                batch_all = bool(np.all(as_bool_array(values, len(values))))
                self.bools_and[fingerprint] = self.bools_and[fingerprint] and batch_all
            elif aggregate.func == "or":
                batch_any = bool(np.any(as_bool_array(values, len(values))))
                self.bools_or[fingerprint] = self.bools_or[fingerprint] or batch_any


def _join_keys(value: Any, count: int) -> np.ndarray:
    """Normalize a join key column: fixed-width strings to objects, bools to
    ints.  Keys containing missing values are rejected by the radix kernels
    themselves (shared with the codegen tier)."""
    keys = materialize(value, count)
    if keys.dtype.kind in "US":
        keys = keys.astype(object)
    if keys.dtype.kind == "b":
        return keys.astype(np.int64)
    return keys


def _align_probe_keys(
    build_kind: str, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Align a probe key batch with the build side's dtype without losing
    integer precision.

    Returns (aligned keys, original positions) — positions is ``None`` when
    every probe key survives, otherwise the indices of the kept keys (probe
    results must be mapped back through it).
    """
    probe_kind = probe_keys.dtype.kind
    if probe_kind in "iu" and build_kind in "iu":
        return probe_keys, None
    if probe_kind == build_kind:
        return probe_keys, None
    if build_kind in "iu" and probe_kind == "f":
        # Only integral float keys inside the int64 range can equal integer
        # build keys; probing the rest (including NaN-encoded nulls) would be
        # wasted work — and a blanket int cast would truncate 3.5 onto 3 or
        # wrap 1e19 onto INT64_MIN.
        integral = (
            np.isfinite(probe_keys)
            & (probe_keys == np.floor(probe_keys))
            & (probe_keys >= -(2.0**63))  # INT64_MIN itself is valid
            & (probe_keys < 2.0**63)
        )
        if integral.all():
            return probe_keys.astype(np.int64), None
        kept = np.nonzero(integral)[0]
        return probe_keys[kept].astype(np.int64), kept
    if build_kind == "f" and probe_kind in "iu":
        # Mirror of the case above: only integers exactly representable in
        # float64 can equal a float build key; a blanket cast would round
        # 2**53 + 1 onto 2**53 and fabricate matches.
        as_float = probe_keys.astype(np.float64)
        safe = (as_float >= -(2.0**63)) & (as_float < 2.0**63)
        round_trip = np.zeros_like(probe_keys)
        round_trip[safe] = as_float[safe].astype(probe_keys.dtype)
        exact = safe & (round_trip == probe_keys)
        if exact.all():
            return as_float, None
        kept = np.nonzero(exact)[0]
        return as_float[kept], kept
    raise VectorizationError(
        f"join keys of kinds {build_kind!r} and {probe_kind!r} are served by "
        "the Volcano interpreter"
    )
