"""Input plug-in API (Table 2 of the paper).

Every supported data format is served by an input plug-in.  Plug-ins are the
only component that understands the bytes of a format; operators and
expression generators consume values exclusively through this interface, which
is what makes the engine extensible ("adding a plug-in suffices to support a
new data format", §4).

The API mirrors Table 2:

==================  =========================================================
Paper call          Reproduction method
==================  =========================================================
``generate()``      :meth:`InputPlugin.generate_scan` — emit scan code into a
                    codegen context and return the buffer variables holding
                    the requested fields.
``readValue()``     :meth:`InputPlugin.read_value` — fetch one field of one
                    object identified by its OID.
``readPath()``      :meth:`InputPlugin.read_path` — fetch a nested object /
                    collection reachable through a path.
``unnestInit()``    :meth:`InputPlugin.unnest_init`
``unnestHasNext()`` :meth:`InputPlugin.unnest_has_next`
``unnestGetNext()`` :meth:`InputPlugin.unnest_get_next`
``hashValue()``     :meth:`InputPlugin.hash_value`
``flushValue()``    :meth:`InputPlugin.flush_value`
==================  =========================================================

In addition, plug-ins provide statistics and cost formulas to the optimizer
(§5.2, "Enabling Cost-based Optimizations") and bulk, vectorized accessors
(:meth:`scan_columns`, :meth:`scan_unnest`) that the generated per-query code
calls at run time — the Python analogue of the data-access code the paper's
plug-ins generate as LLVM IR.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
# Canonical nested-access rule, re-exported for plug-in authors.
from repro.core.types import dig_path  # noqa: F401
from repro.errors import PluginError
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.memory import MemoryManager

FieldPath = tuple[str, ...]


def _noop() -> None:
    return None


@dataclass
class ScanBuffers:
    """The virtual memory buffers a scan populates for the rest of the plan.

    ``columns`` maps each requested field path to a NumPy array with one entry
    per qualifying object; ``oids`` carries the object identifier the plug-in
    produced for each entry, which later lazy accesses (``read_value``) use to
    return to the source object.
    """

    count: int
    oids: np.ndarray
    columns: dict[FieldPath, np.ndarray] = field(default_factory=dict)

    def column(self, path: FieldPath) -> np.ndarray:
        try:
            return self.columns[path]
        except KeyError as exc:
            raise PluginError(f"scan did not materialize field {'.'.join(path)!r}") from exc


@dataclass
class UnnestBuffers:
    """Buffers produced when unnesting a nested collection.

    ``parent_positions`` maps every unnested element back to the position of
    its parent in the parent buffers (so parent fields can be gathered), and
    ``columns`` holds the requested element fields, flattened.
    """

    count: int
    parent_positions: np.ndarray
    columns: dict[FieldPath, np.ndarray] = field(default_factory=dict)

    def column(self, path: FieldPath) -> np.ndarray:
        try:
            return self.columns[path]
        except KeyError as exc:
            raise PluginError(f"unnest did not materialize field {'.'.join(path)!r}") from exc


@dataclass
class UnnestBatch:
    """Offset-vector output of a *batch-native* unnest.

    Instead of per-element parent positions, the batch API describes the
    flattening as one repeat count per parent: ``repeats[i]`` is how many
    output rows parent ``i`` (of the ``parent_oids`` passed in) contributes.
    Parent columns are then broadcast with a single ``np.repeat`` per batch —
    no per-parent round-trips.  Under *outer* unnest a parent whose collection
    is empty or missing contributes exactly one row whose element columns hold
    the missing value (``None`` / NaN), mirroring the Volcano interpreter's
    null child row.
    """

    count: int
    #: int64, one entry per requested parent; ``repeats.sum() == count``.
    repeats: np.ndarray
    columns: dict[FieldPath, np.ndarray] = field(default_factory=dict)

    def column(self, path: FieldPath) -> np.ndarray:
        try:
            return self.columns[path]
        except KeyError as exc:
            raise PluginError(f"unnest did not materialize field {'.'.join(path)!r}") from exc

    def parent_positions(self) -> np.ndarray:
        """Per-element parent positions (the legacy ``UnnestBuffers`` shape),
        derived from the repeat counts with one vectorized ``np.repeat``."""
        return np.repeat(np.arange(len(self.repeats), dtype=np.int64), self.repeats)


@dataclass
class UnnestState:
    """Iterator state for the tuple-at-a-time unnest API."""

    elements: list
    position: int = 0


class InputPlugin(ABC):
    """Base class of all input plug-ins."""

    #: Format name served by the plug-in (matches ``Dataset.format``).
    format_name: str = "abstract"

    #: Relative cost of extracting one value from the source, used by the
    #: optimizer's cost formulas and by the format-biased cache eviction
    #: policy (JSON > CSV > binary).
    field_access_cost: float = 1.0

    #: Whether :meth:`scan_batch_ranges` has a genuinely splittable
    #: implementation.  The vectorized tier only splits scans of plug-ins
    #: that set this to ``True`` into morsels; everything else runs in the
    #: calling thread.
    supports_scan_ranges: bool = False

    def __init__(self, memory: MemoryManager):
        self.memory = memory
        #: Cumulative scan metrics (scraped by the engine's metrics registry
        #: as per-plugin gauges): wall-clock seconds spent inside this
        #: plug-in's scan/parse paths, bytes of columnar data produced, and
        #: the number of scan streams / kernel calls served.  Updated through
        #: :meth:`record_scan` from the engine-side call sites (the batch
        #: tiers' scan streams and the codegen runtime), one flush per
        #: stream, under a lock (parallel runs record from workers).
        self.scan_seconds = 0.0
        self.scan_bytes = 0
        self.scan_calls = 0
        self._metrics_lock = make_lock("InputPlugin._metrics_lock")
        #: Deterministic fault harness hook (chaos suite): ``None`` in
        #: production; when installed, every :meth:`io_guard` /
        #: :meth:`io_checkpoint` step consults it *beneath* the retry layer.
        self.fault_injector = None

    def record_scan(self, seconds: float, nbytes: int) -> None:
        """Charge one scan stream / kernel call to this plug-in's metrics."""
        with self._metrics_lock:
            self.scan_seconds += seconds
            self.scan_bytes += int(nbytes)
            self.scan_calls += 1

    # -- resilient raw I/O ----------------------------------------------------

    def install_fault_injector(self, injector) -> None:
        """Install (or clear, with ``None``) a chaos-suite fault injector."""
        self.fault_injector = injector

    def io_guard(self, operation: str, dataset_name: str | None, fn, *args, **kwargs):
        """Run one raw-I/O step (an mmap + parse, a batch slice) under the
        resilience retry policy.

        Transient ``OSError``s — real mmap faults or injected ones — are
        retried with exponential backoff against the active query's retry
        budget (RES005 once exhausted); ``ValueError`` surfaces immediately
        as corrupt data (RES006).  Faults injected by the chaos harness fire
        *inside* the attempt, beneath the retry layer, so an injected
        one-shot I/O error is recovered exactly like a real one.
        """
        from repro.resilience.retry import retry_io

        injector = self.fault_injector
        call = injector.next_call(operation, dataset_name) if injector is not None else 0

        def attempt():
            if injector is not None:
                injector.on_attempt(call, operation, dataset_name)
            return fn(*args, **kwargs)

        return retry_io(attempt, operation=operation, dataset=dataset_name)

    def io_checkpoint(self, operation: str, dataset_name: str | None) -> None:
        """A zero-work :meth:`io_guard` step for streaming scan paths.

        The hot scan generators operate on bytes already mapped into memory,
        so they have no real I/O call to wrap — but the chaos harness still
        needs a deterministic injection point per produced batch.  Without an
        installed injector this is one attribute test.
        """
        if self.fault_injector is None:
            return
        self.io_guard(operation, dataset_name, _noop)

    # -- schema and statistics ----------------------------------------------

    @abstractmethod
    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        """Discover the element schema of the dataset."""

    @abstractmethod
    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        """Gather cardinality and min/max statistics for the dataset."""

    # -- bulk (vectorized) access used by generated code ---------------------

    @abstractmethod
    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        """Materialize the requested field paths into columnar buffers."""

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Materialize the requested fields for the given OIDs only.

        This is the *lazy* access path of §5.2: when a selection has already
        filtered most objects away, converting the remaining fields only for
        the qualifying OIDs avoids touching the raw data for objects that were
        filtered out.  The default implementation extracts full columns and
        gathers; verbose formats override it with genuinely selective access.
        """
        full = self.scan_columns(dataset, paths)
        buffers = ScanBuffers(count=len(oids), oids=np.asarray(oids, dtype=np.int64))
        for path in paths:
            buffers.columns[tuple(path)] = full.column(tuple(path))[oids]
        return buffers

    def scan_unnest(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray | None = None,
    ) -> UnnestBuffers:
        """Unnest a nested collection field into flattened buffers."""
        raise PluginError(
            f"format {self.format_name!r} does not contain nested collections"
        )

    def scan_unnest_batch(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray,
        outer: bool = False,
    ) -> UnnestBatch:
        """Unnest a nested collection for a batch of parents at once.

        Returns flattened element buffers plus one repeat count per parent
        (:class:`UnnestBatch`), which is what lets the batch executors
        broadcast parent columns with a single ``np.repeat`` per batch.  With
        ``outer=True`` parents whose collection is empty or missing emit one
        null child row (repeat count 1, element values missing).

        The default implementation is the *per-parent round-trip* path: one
        pass through the Table-2 iterator protocol (``unnest_init`` /
        ``unnest_has_next`` / ``unnest_get_next``) per parent OID — correct
        for every plug-in that can navigate to the collection, but paying the
        per-parent (and per-element) interpretation cost the paper's §5
        measures.  Formats with structural indexes override it with a native
        offset-vector implementation (see ``JsonPlugin.scan_unnest_batch``);
        ``benchmarks/bench_unnest.py`` gates the native path >= 5x over this
        fallback.
        """
        self.io_checkpoint("scan-unnest", dataset.name)
        element_paths = [tuple(path) for path in element_paths]
        repeats = np.zeros(len(parent_oids), dtype=np.int64)
        values: dict[FieldPath, list] = {path: [] for path in element_paths}
        total = 0
        for slot, oid in enumerate(parent_oids):
            state = self.unnest_init(dataset, int(oid), collection_path)
            emitted = 0
            while self.unnest_has_next(state):
                element = self.unnest_get_next(state)
                emitted += 1
                for path in element_paths:
                    values[path].append(dig_path(element, path))
            if emitted == 0 and outer:
                emitted = 1
                for path in element_paths:
                    values[path].append(None)
            repeats[slot] = emitted
            total += emitted
        batch = UnnestBatch(count=total, repeats=repeats)
        for path in element_paths:
            batch.columns[path] = values_to_array(values[path])
        return batch

    def scan_batches(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        """Yield the requested field paths as a stream of columnar batches.

        This is the access path of the vectorized batch executor: instead of
        one dict per tuple (``iterate_rows``) or one monolithic buffer per
        column (``scan_columns``), the scan produces :class:`ScanBuffers` of at
        most ``batch_size`` rows each, with OIDs carrying the global row
        positions.  The default implementation is a per-tuple shim over
        ``iterate_rows`` — correct for every plug-in but paying the per-tuple
        cost once; formats with structural indexes or native columns override
        it with genuinely batched extraction.  Empty datasets yield no batches.
        """
        paths = [tuple(path) for path in paths]
        pending: list[dict] = []
        start = 0
        for record in self.iterate_rows(dataset, paths):
            pending.append(record)
            if len(pending) >= batch_size:
                self.io_checkpoint("scan-batch", dataset.name)
                yield self._shim_batch(pending, paths, start)
                start += len(pending)
                pending = []
        if pending:
            self.io_checkpoint("scan-batch", dataset.name)
            yield self._shim_batch(pending, paths, start)

    def scan_row_count(self, dataset: Dataset) -> int | None:
        """Total number of scannable rows, or ``None`` when counting would
        require a full pass over the source.

        A known row count is what lets the vectorized tier split a scan
        into independent morsel row ranges up front; plug-ins backed by a
        structural index or binary layout know it for free.
        """
        return None

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        """Yield the requested fields for global rows ``[start, stop)`` as
        columnar batches (OIDs carry the global row positions).

        This is the *splittable* access path of morsel-driven parallel
        execution: disjoint ranges must be servable concurrently from
        different threads without touching shared mutable plug-in state.
        Plug-ins that implement it natively set :attr:`supports_scan_ranges`;
        the default refuses, and the vectorized tier then scans the dataset
        in the calling thread.
        """
        raise PluginError(
            f"format {self.format_name!r} does not support range-partitioned "
            "scans"
        )

    def _shim_batch(
        self, records: list[dict], paths: Sequence[FieldPath], start: int
    ) -> ScanBuffers:
        buffers = ScanBuffers(
            count=len(records),
            oids=np.arange(start, start + len(records), dtype=np.int64),
        )
        for path in paths:
            buffers.columns[tuple(path)] = values_to_array(
                [dig_path(record, path) for record in records]
            )
        return buffers

    # -- tuple-at-a-time access (Volcano executor, lazy expression evaluation)

    @abstractmethod
    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        """Yield one dict per object; when ``paths`` is given only those
        fields need to be populated (plus nested structure they traverse)."""

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        """Fetch a single field value by OID (lazy access)."""
        raise PluginError(f"format {self.format_name!r} does not support lazy access")

    def read_path(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        """Fetch a nested object or collection by OID."""
        return self.read_value(dataset, oid, path)

    # -- unnest iterator protocol (Table 2) ----------------------------------

    def unnest_init(self, dataset: Dataset, oid: int, path: FieldPath) -> UnnestState:
        value = self.read_path(dataset, oid, path)
        if value is None:
            return UnnestState([])
        if not isinstance(value, (list, tuple)):
            raise PluginError(f"field {'.'.join(path)!r} is not a collection")
        return UnnestState(list(value))

    def unnest_has_next(self, state: UnnestState) -> bool:
        return state.position < len(state.elements)

    def unnest_get_next(self, state: UnnestState) -> Any:
        value = state.elements[state.position]
        state.position += 1
        return value

    # -- value helpers --------------------------------------------------------

    def hash_value(self, value: Any) -> int:
        """Hash a value for joins/grouping (overridable per format)."""
        return hash(value)

    def flush_value(self, value: Any) -> str:
        """Render a value for result output."""
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    # -- code generation ------------------------------------------------------

    def generate_scan(
        self, ctx, dataset: Dataset, paths: Sequence[FieldPath]
    ) -> dict[FieldPath, str]:
        """Emit scan code into a codegen context.

        The default implementation registers this plug-in in the generated
        program's runtime table and emits a call to :meth:`scan_columns`,
        followed by one buffer variable per requested field.  Plug-ins may
        override this to specialize further (e.g. the binary column plug-in
        emits direct array references).
        """
        dataset_var = ctx.register_constant(f"ds_{dataset.name}", dataset)
        plugin_var = ctx.register_constant(f"plugin_{self.format_name}", self)
        buffers_var = ctx.fresh("buffers")
        path_literal = ", ".join(repr(tuple(path)) for path in paths)
        ctx.emit(
            f"{buffers_var} = rt.scan({plugin_var}, {dataset_var}, ({path_literal}{',' if paths else ''}))"
        )
        variables: dict[FieldPath, str] = {}
        for path in paths:
            var = ctx.fresh("col_" + "_".join(path) if path else "col_value")
            ctx.emit(f"{var} = {buffers_var}.column({tuple(path)!r})")
            variables[path] = var
        oid_var = ctx.fresh("oids")
        ctx.emit(f"{oid_var} = {buffers_var}.oids")
        variables[("__oid__",)] = oid_var
        return variables

    # -- costing --------------------------------------------------------------

    def scan_cost(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        statistics: DatasetStatistics | None,
    ) -> float:
        """Estimated cost of scanning the requested fields of the dataset."""
        cardinality = statistics.cardinality if statistics is not None else 1_000_000
        return cardinality * self.field_access_cost * max(len(paths), 1)


def count_missing(values: np.ndarray) -> int:
    """Observed missing entries in a column buffer.

    Delegates to the executor kernels' ``missing_mask`` so statistics
    collection and execution agree on what "missing" means (``None`` in
    object buffers, NaN in float buffers).  Feeds
    ``DatasetStatistics.null_counts`` — the proof the static analyzer
    needs before it lets a tier skip missing-mask construction."""
    from repro.core.executor.radix import missing_mask

    mask = missing_mask(np.asarray(values))
    return 0 if mask is None else int(mask.sum())


def require_flat_path(path: FieldPath) -> str:
    """Helper for flat formats: a path must have exactly one element."""
    if len(path) != 1:
        raise PluginError(
            f"flat formats have no nested fields; got path {'.'.join(path)!r}"
        )
    return path[0]


def flatten_collections(
    collections: Sequence, element_paths: Sequence[FieldPath], outer: bool = False
) -> UnnestBatch:
    """Flatten already-materialized collection values into an
    :class:`UnnestBatch`.

    ``collections`` holds one Python collection (list/tuple), or ``None``,
    per parent — e.g. an object column a previous unnest materialized.  This
    is the offset-vector kernel behind *column-backed* unnest (nested
    collections inside already-unnested elements), shared so every caller
    agrees on outer-unnest null rows and on the "not a collection" error.
    """
    element_paths = [tuple(path) for path in element_paths]
    repeats = np.zeros(len(collections), dtype=np.int64)
    values: dict[FieldPath, list] = {path: [] for path in element_paths}
    total = 0
    for slot, elements in enumerate(collections):
        if elements is None:
            elements = ()
        elif not isinstance(elements, (list, tuple)):
            raise PluginError("unnest input is not a nested collection")
        if elements:
            repeats[slot] = len(elements)
            total += len(elements)
            for path in element_paths:
                values[path].extend(dig_path(element, path) for element in elements)
        elif outer:
            repeats[slot] = 1
            total += 1
            for path in element_paths:
                values[path].append(None)
    batch = UnnestBatch(count=total, repeats=repeats)
    for path in element_paths:
        batch.columns[path] = values_to_array(values[path])
    return batch


def values_to_array(values: list) -> np.ndarray:
    """Pack extracted Python values into the tightest NumPy column.

    Missing values (``None``) force an object buffer so tuple-at-a-time null
    semantics survive the round-trip through the batch executor; clean numeric
    columns specialize to ``int64`` / ``float64`` / ``bool`` buffers.
    """
    if not values:
        return np.zeros(0, dtype=np.float64)
    if not any(value is None for value in values):
        if all(isinstance(value, bool) for value in values):
            return np.asarray(values, dtype=np.bool_)
        if all(
            isinstance(value, int) and not isinstance(value, bool) for value in values
        ):
            try:
                return np.asarray(values, dtype=np.int64)
            except OverflowError:
                # Ints beyond int64 stay exact in an object buffer (a float64
                # cast would round them).
                pass
        elif all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in values
        ):
            return np.asarray(values, dtype=np.float64)
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


