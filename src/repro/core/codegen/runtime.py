"""Runtime support library for generated queries.

The paper keeps two kinds of logic out of the generated code: pre-existing
helpers (radix join/grouping, the memory and caching managers) and anything
that is cheaper to call than to inline.  The generated Python program receives
one :class:`QueryRuntime` instance (``rt``) and calls into it for:

* ``scan`` / ``unnest`` — plug-in data access, transparently served from the
  adaptive caches when the caching manager holds the requested columns and
  populated as a side effect otherwise (§6),
* ``radix_join`` / ``radix_group`` / aggregates — the materializing kernels,
  with join build sides reusable across queries through partial cache matches,
* bookkeeping counters used by the experiment reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.caching.manager import CacheManager
from repro.caching.matching import field_cache_key, join_side_cache_key, unnest_cache_key
from repro.core.executor import radix
from repro.errors import ExecutionError
from repro.plugins.base import FieldPath, InputPlugin, ScanBuffers, UnnestBuffers
from repro.storage.catalog import Catalog, Dataset


@dataclass
class ExecutionProfile:
    """Counters describing one query execution (proxies for the paper's
    hardware-counter discussion)."""

    rows_scanned: int = 0
    values_extracted: int = 0
    values_from_cache: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
    groups_built: int = 0
    output_rows: int = 0
    batches_processed: int = 0
    used_generated_code: bool = True
    #: Which execution tier served the query: "codegen" (the specialized
    #: per-query program), "vectorized" (the batch interpreter) or "volcano"
    #: (the tuple-at-a-time interpreter).
    execution_tier: str = "codegen"
    #: Worker count of a vectorized execution that fanned out over the
    #: worker pool (0 when everything ran in the calling thread).
    parallel_workers: int = 0
    #: Morsels executed / obtained by stealing in that fan-out (0 without
    #: one).
    morsels_dispatched: int = 0
    morsels_stolen: int = 0
    #: True when the codegen tier served this execution from an
    #: already-compiled program (no code generation happened on this call).
    compiled_from_cache: bool = False
    #: Which sort kernel served the query's ORDER BY: "lexsort" (one stable
    #: dtype-specialized permutation), "topk" (bounded streaming top-K for
    #: ORDER BY + LIMIT), "parallel-merge" (sorted runs of several morsels
    #: merged k-way at the root), "object-fallback" (boxed comparator for
    #: object columns) — or None when the query has no ORDER BY.
    sort_strategy: str | None = None
    #: Rows that entered a sort kernel (for streaming top-K this counts every
    #: pruned batch, so it can exceed the result size).
    rows_sorted: int = 0
    #: Rows emitted by batch-native unnest stages (flattened elements plus,
    #: under outer unnest, one null child row per empty collection).
    unnest_output_rows: int = 0
    #: The tier the static plan analyzer predicted would serve this query
    #: (``None`` for profiles built outside the engine's cascade).
    predicted_tier: str | None = None
    #: Why each non-serving tier declined, keyed by tier name; values carry a
    #: machine-readable code prefix, e.g. ``"[TIER005] outer join is served
    #: by the Volcano interpreter"``.  Tiers that declined *during* execution
    #: (data-dependent demotions the static analysis cannot rule out) appear
    #: with code ``TIER009``.
    tier_decline_reasons: dict[str, str] = field(default_factory=dict)
    #: Transient scan-I/O retries this query consumed (RES005 territory once
    #: the per-query budget runs out).
    io_retries: int = 0
    #: ``None`` for completed queries; the diagnostic code (``RES001`` ...)
    #: when the query was aborted by the resilience subsystem.
    aborted: str | None = None
    #: Partial-progress counters (batches/rows/morsels/kernel calls) captured
    #: from the :class:`~repro.resilience.context.QueryContext` when a query
    #: aborts; empty for completed queries.
    partial_progress: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "ExecutionProfile") -> None:
        self.rows_scanned += other.rows_scanned
        self.values_extracted += other.values_extracted
        self.values_from_cache += other.values_from_cache
        self.join_build_rows += other.join_build_rows
        self.join_output_rows += other.join_output_rows
        self.groups_built += other.groups_built
        self.output_rows += other.output_rows
        self.batches_processed += other.batches_processed
        self.parallel_workers = max(self.parallel_workers, other.parallel_workers)
        self.morsels_dispatched += other.morsels_dispatched
        self.morsels_stolen += other.morsels_stolen
        self.sort_strategy = self.sort_strategy or other.sort_strategy
        self.rows_sorted += other.rows_sorted
        self.unnest_output_rows += other.unnest_output_rows
        self.io_retries += other.io_retries
        self.aborted = self.aborted or other.aborted
        self.predicted_tier = self.predicted_tier or other.predicted_tier
        self.tier_decline_reasons.update(other.tier_decline_reasons)
        # Tier attribution is conservative: the merged profile reports the
        # *slowest* tier any fragment executed on (that tier bounds the
        # merged execution), generated code only if every fragment ran it,
        # and a cached compilation only if every fragment's program came
        # from the cache.  Before this folding the three fields silently
        # reset to their defaults when per-fragment profiles were merged.
        if _TIER_RANK.get(other.execution_tier, -1) > _TIER_RANK.get(
            self.execution_tier, -1
        ):
            self.execution_tier = other.execution_tier
        self.used_generated_code = (
            self.used_generated_code and other.used_generated_code
        )
        self.compiled_from_cache = (
            self.compiled_from_cache and other.compiled_from_cache
        )


#: Cascade order used by :meth:`ExecutionProfile.merge` — higher rank means
#: a slower (more of a bottleneck) tier.
_TIER_RANK = {
    "codegen": 0,
    "vectorized": 1,
    "volcano": 2,
}


class QueryRuntime:
    """Everything a generated query program needs at run time."""

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        cache_manager: CacheManager | None = None,
        params: Mapping[int | str, object] | None = None,
        trace=None,
        context=None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.cache_manager = cache_manager
        self.params: Mapping[int | str, object] = params if params is not None else {}
        self.profile = ExecutionProfile()
        self.trace = trace
        self.context = context
        if trace is not None:
            # Rebind the kernel entry points with span-recording closures on
            # this instance only; untraced runtimes keep the plain methods.
            from repro.obs.instrument import instrument_runtime

            instrument_runtime(self, trace)
        if context is not None and context.active:
            # Same rebinding idiom for cooperative deadline/cancel checks: a
            # generated program cannot be interrupted mid-source, but every
            # unit of work it performs flows through these kernels.  A
            # passive context (no deadline, no token) keeps the plain
            # methods, so the default engine pays nothing here.
            from repro.resilience.instrument import instrument_runtime_checks

            instrument_runtime_checks(self, context)

    # -- parameters ----------------------------------------------------------------

    def param(self, key: int | str):
        """The bound value of one query parameter (generated code calls this
        instead of baking the constant in, so the program is reusable)."""
        try:
            return self.params[key]
        except KeyError as exc:
            display = f"?{key}" if isinstance(key, int) else f":{key}"
            raise ExecutionError(
                f"query parameter {display} is not bound"
            ) from exc

    # -- data access ---------------------------------------------------------------

    def scan(
        self, plugin: InputPlugin, dataset: Dataset, paths: Sequence[FieldPath]
    ) -> ScanBuffers:
        """Materialize the requested columns, using and feeding the caches."""
        paths = [tuple(path) for path in paths]
        manager = self.cache_manager
        if manager is None or plugin.format_name == "cache":
            buffers = _metered_scan(plugin, plugin.scan_columns, dataset, paths)
            self.profile.rows_scanned += buffers.count
            self.profile.values_extracted += buffers.count * len(paths)
            return buffers

        cached: dict[FieldPath, np.ndarray] = {}
        missing: list[FieldPath] = []
        for path in paths:
            entry = manager.lookup(field_cache_key(dataset.name, path))
            if entry is not None:
                cached[path] = entry.data
            else:
                missing.append(path)

        if missing or not paths:
            fresh = _metered_scan(plugin, plugin.scan_columns, dataset, missing)
            self.profile.rows_scanned += fresh.count
            self.profile.values_extracted += fresh.count * len(missing)
            count = fresh.count
            oids = fresh.oids
            for path in missing:
                column = fresh.column(path)
                cached[path] = column
                type_name = _column_type_name(column)
                if manager.policy.should_cache_field(plugin.format_name, type_name):
                    manager.store(
                        field_cache_key(dataset.name, path),
                        column,
                        kind="field",
                        dataset=dataset.name,
                        source_format=plugin.format_name,
                        description=f"{dataset.name}.{'.'.join(path)}",
                    )
        else:
            count = len(next(iter(cached.values()))) if cached else 0
            oids = np.arange(count, dtype=np.int64)
            self.profile.values_from_cache += count * len(cached)

        buffers = ScanBuffers(count=count, oids=oids)
        buffers.columns.update(cached)
        return buffers

    def scan_selected(
        self,
        plugin: InputPlugin,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        oids: np.ndarray,
    ) -> ScanBuffers:
        """Lazy field materialization: convert fields only for qualifying OIDs.

        Used by the generated code when a selective predicate has already run
        over (cached or cheaply-extracted) columns, so the remaining fields are
        converted only for the survivors (§5.2, lazy plug-in behaviour).
        Cached columns are still preferred; selective extractions are not
        admitted to the cache (they do not cover the full dataset).
        """
        paths = [tuple(path) for path in paths]
        oids = np.asarray(oids, dtype=np.int64)
        manager = self.cache_manager
        cached: dict[FieldPath, np.ndarray] = {}
        missing: list[FieldPath] = []
        for path in paths:
            entry = (
                manager.lookup(field_cache_key(dataset.name, path))
                if manager is not None and plugin.format_name != "cache"
                else None
            )
            if entry is not None:
                cached[path] = entry.data[oids]
                self.profile.values_from_cache += len(oids)
            else:
                missing.append(path)
        buffers = ScanBuffers(count=len(oids), oids=oids)
        buffers.columns.update(cached)
        if missing:
            fresh = _metered_scan(plugin, plugin.scan_columns_at, dataset, missing, oids)
            self.profile.values_extracted += len(oids) * len(missing)
            for path in missing:
                buffers.columns[path] = fresh.column(path)
        return buffers

    def unnest(
        self,
        plugin: InputPlugin,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray,
        full_scan: bool = False,
    ) -> UnnestBuffers:
        """Flatten a nested collection, caching the result for full scans."""
        collection_path = tuple(collection_path)
        element_paths = [tuple(path) for path in element_paths]
        manager = self.cache_manager
        key = unnest_cache_key(dataset.name, collection_path, element_paths)
        if manager is not None and full_scan:
            entry = manager.lookup(key)
            if entry is not None:
                buffers = entry.data
                self.profile.values_from_cache += buffers.count * max(len(element_paths), 1)
                self.profile.unnest_output_rows += buffers.count
                return buffers
        buffers = _metered_scan(
            plugin,
            plugin.scan_unnest,
            dataset,
            collection_path,
            element_paths,
            None if full_scan else parent_oids,
        )
        self.profile.rows_scanned += buffers.count
        self.profile.unnest_output_rows += buffers.count
        self.profile.values_extracted += buffers.count * max(len(element_paths), 1)
        if manager is not None and full_scan and \
                manager.policy.cache_unnest_output and \
                manager.policy.should_cache_field(plugin.format_name, "float"):
            manager.store(
                key,
                buffers,
                kind="unnest",
                dataset=dataset.name,
                source_format=plugin.format_name,
                description=f"unnest {dataset.name}.{'.'.join(collection_path)}",
            )
        return buffers

    # -- join / grouping kernels ------------------------------------------------------

    def radix_join(
        self,
        left_keys: np.ndarray,
        right_keys: np.ndarray,
        build_cache_key: tuple | None = None,
        source_format: str = "binary_column",
        dataset: str = "",
        param_keys: tuple = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Radix hash join; the build side may be served from / added to the cache.

        ``param_keys`` names the query parameters the build side depends on:
        the plan fingerprint inside ``build_cache_key`` abstracts parameter
        *values*, so the bound values must be folded back into the cache key —
        otherwise two executions with different constants (and coincidentally
        equal build cardinalities) could share a stale build table.
        """
        if build_cache_key is not None and param_keys:
            try:
                build_cache_key = tuple(build_cache_key) + tuple(
                    (key, self.params.get(key)) for key in param_keys
                )
                hash(build_cache_key)
            except TypeError:
                # Unhashable parameter values: skip build-side caching.
                build_cache_key = None
        table = None
        manager = self.cache_manager
        if manager is not None and build_cache_key is not None:
            entry = manager.lookup(("join_side",) + tuple(build_cache_key))
            if entry is not None:
                table = entry.data
        if table is None or table.build_size != len(left_keys):
            table = radix.build_radix_table(np.asarray(left_keys))
            self.profile.join_build_rows += len(left_keys)
            if manager is not None and build_cache_key is not None and \
                    manager.policy.should_cache_join_side({source_format}):
                manager.store(
                    ("join_side",) + tuple(build_cache_key),
                    table,
                    kind="join_side",
                    dataset=dataset,
                    source_format=source_format,
                    description="radix join build side",
                )
        left_positions, right_positions = radix.probe_radix_table(
            table, np.asarray(right_keys)
        )
        self.profile.join_output_rows += len(left_positions)
        return left_positions, right_positions

    def cross_product(self, left_count: int, right_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs of a cartesian product (nested-loop join fallback)."""
        left = np.repeat(np.arange(left_count, dtype=np.int64), right_count)
        right = np.tile(np.arange(right_count, dtype=np.int64), left_count)
        return left, right

    def radix_group(self, key_arrays: Sequence[np.ndarray]) -> radix.GroupingResult:
        result = radix.radix_group([np.asarray(keys) for keys in key_arrays])
        self.profile.groups_built += result.num_groups
        return result

    def group_agg(
        self,
        func: str,
        group_ids: np.ndarray,
        num_groups: int,
        values: np.ndarray | None = None,
    ) -> np.ndarray:
        return radix.group_aggregate(func, group_ids, num_groups, values)

    def scalar_agg(self, func: str, values: np.ndarray | None, count: int):
        return radix.scalar_aggregate(func, values, count)

    # -- null-aware expression helpers -----------------------------------------------------

    def mask(self, values) -> np.ndarray:
        """Coerce a predicate result to a boolean selection mask (missing
        inputs are false); shared with the vectorized executor."""
        return radix.bool_mask(values)

    def column(self, values, count) -> np.ndarray:
        """Materialize an output-column result to ``count`` rows: constant
        (0-d) heads broadcast, full columns pass through."""
        array = np.asarray(values)
        if array.ndim == 0:
            return np.broadcast_to(array, (int(count),))
        return array

    def cmp(self, op: str, left, right) -> np.ndarray:
        """Null-aware vectorized comparison; shared with the vectorized
        executor."""
        return radix.null_safe_compare(op, left, right)

    def arith(self, op: str, left, right):
        """Null-aware vectorized arithmetic; shared with the vectorized
        executor."""
        return radix.null_safe_arith(op, left, right)

    def neg(self, value):
        """Null-aware vectorized unary minus; shared with the vectorized
        executor."""
        return radix.null_safe_neg(value)

    # -- misc ----------------------------------------------------------------------------

    def record_output(self, count: int) -> None:
        self.profile.output_rows += int(count)

    def join_cache_key(self, side_fingerprint: tuple, key_fingerprint: tuple) -> tuple:
        return join_side_cache_key(side_fingerprint, key_fingerprint)


def _metered_scan(plugin: InputPlugin, accessor, *args):
    """Run one plug-in scan call, charging its wall time and produced bytes
    to the plug-in's scan metrics (scraped per plug-in by the registry)."""
    started = time.perf_counter()
    buffers = accessor(*args)
    seconds = time.perf_counter() - started
    nbytes = sum(
        getattr(column, "nbytes", 0) for column in buffers.columns.values()
    )
    plugin.record_scan(seconds, nbytes)
    return buffers


def _column_type_name(column: np.ndarray) -> str:
    if column.dtype == object:
        return "string"
    if column.dtype.kind == "b":
        return "bool"
    if column.dtype.kind in "iu":
        return "int"
    return "float"
