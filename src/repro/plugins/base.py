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
that the generated per-query code and the batch tiers call at run time — the
Python analogue of the data-access code the paper's plug-ins generate as LLVM
IR.

A format implements :meth:`InputPlugin._read` (one ranged, projected read),
:meth:`InputPlugin.scan_row_count`, a state builder
(:meth:`InputPlugin._build_state`) and the tuple protocol (``iterate_rows`` /
``read_value`` / ``unnest_*``).  :class:`InputPlugin` derives every bulk entry
point from ``_read`` — :meth:`~InputPlugin.scan_columns` (all rows),
:meth:`~InputPlugin.scan_columns_at` (OIDs), :meth:`~InputPlugin.scan_batch_ranges`
(batches of a row range) — plus :meth:`~InputPlugin.scan_unnest` on top of
:meth:`~InputPlugin.scan_unnest_batch`, and owns the per-dataset state cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence, Union

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
# Canonical nested-access rule, re-exported for plug-in authors.
from repro.core.types import dig_path  # noqa: F401
from repro.errors import PluginError
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.memory import MemoryManager

FieldPath = tuple[str, ...]

#: The rows one :meth:`InputPlugin._read` serves: a contiguous ``range`` of
#: global row positions, or an int64 array of OIDs.
Rows = Union[range, np.ndarray]


def row_selector(rows: Rows) -> slice | np.ndarray:
    """Index selecting ``rows`` from a full column: a slice for a range (a
    zero-copy view of a mapped column), the OID array otherwise."""
    return slice(rows.start, rows.stop) if isinstance(rows, range) else rows


def row_positions(rows: Rows) -> Iterable[int]:
    """``rows`` as plain ints: a range iterates as-is, OIDs unbox once."""
    return rows if isinstance(rows, range) else np.asarray(rows, dtype=np.int64).tolist()


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
        #: Per-dataset format state (a structural index, a mapped table):
        #: dataset name -> (the ``Dataset`` it was built for, the state).
        self._states: dict[str, tuple[Dataset, Any]] = {}
        self._state_lock = make_lock("InputPlugin._state_lock")

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

    # -- per-dataset state ----------------------------------------------------

    def _build_state(self, dataset: Dataset) -> Any:
        """Build the format's state for ``dataset`` (run under the state
        lock, once per registered ``Dataset``); raw I/O inside it goes through
        :meth:`io_guard`."""
        raise NotImplementedError(f"format {self.format_name!r} keeps no state")

    def _state(self, dataset: Dataset) -> Any:
        """The state built for this very ``Dataset`` object.

        Double-checked locking: concurrent workers hitting a cold dataset
        build it once; a published state is immutable and read lock-free.
        A state built for another ``Dataset`` under the same name — an
        in-flight scan of a re-registered name's old version — is rebuilt,
        never reused.
        """
        entry = self._states.get(dataset.name)
        if entry is not None and entry[0] is dataset:
            return entry[1]
        with self._state_lock:
            entry = self._states.get(dataset.name)
            if entry is None or entry[0] is not dataset:
                entry = (dataset, self._build_state(dataset))
                self._states[dataset.name] = entry
            return entry[1]

    def invalidate(self, dataset_name: str) -> None:
        """Drop per-dataset state (used when the underlying file changes)."""
        with self._state_lock:
            self._states.pop(dataset_name, None)

    # -- schema and statistics ----------------------------------------------

    @abstractmethod
    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        """Discover the element schema of the dataset."""

    @abstractmethod
    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        """Gather cardinality and min/max statistics for the dataset."""

    # -- bulk (vectorized) access ----------------------------------------------

    @abstractmethod
    def scan_row_count(self, dataset: Dataset) -> int:
        """Total number of scannable rows; the vectorized tier splits scans
        into morsel row ranges from it."""

    @abstractmethod
    def _read(
        self, dataset: Dataset, paths: Sequence[FieldPath], rows: Rows
    ) -> dict[FieldPath, np.ndarray]:
        """The one bulk read a format implements: one column per requested
        path, holding ``rows`` in order.

        ``rows`` is a contiguous ``range`` of global rows (binary formats
        return zero-copy views of it) or an int64 OID array — the *lazy*
        access path of §5.2, which converts fields only for objects a
        selection kept.  ``scan_columns``, ``scan_columns_at`` and
        ``scan_batch_ranges`` call this, never each other, so a tracer
        wrapping the public methods sees one call per scan.
        """

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        """Materialize the requested field paths into columnar buffers."""
        paths = [tuple(path) for path in paths]
        total = self.scan_row_count(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        return ScanBuffers(
            count=total,
            oids=np.arange(total, dtype=np.int64),
            columns=self._read(dataset, paths, range(total)),
        )

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Materialize the requested fields for the given OIDs only."""
        paths = [tuple(path) for path in paths]
        rows = np.asarray(oids, dtype=np.int64)
        self.io_checkpoint("scan-columns", dataset.name)
        return ScanBuffers(
            count=len(rows), oids=rows, columns=self._read(dataset, paths, rows)
        )

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        """Yield the requested fields for global rows ``[start, stop)`` as
        columnar batches of at most ``batch_size`` rows (OIDs carry the global
        row positions).

        This is the access path of the vectorized tier: a serial run scans
        ``[0, scan_row_count)``, morsel-driven workers scan disjoint ranges
        concurrently, which ``_read`` serves without shared mutable state.
        """
        paths = [tuple(path) for path in paths]
        stop = min(stop, self.scan_row_count(dataset))
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            yield ScanBuffers(
                count=end - begin,
                oids=np.arange(begin, end, dtype=np.int64),
                columns=self._read(dataset, paths, range(begin, end)),
            )

    #: Parents flattened per ``scan_unnest_batch`` call when ``scan_unnest``
    #: covers a whole dataset: bounds peak memory (joined spans + parsed
    #: element dicts are alive per chunk only) while keeping the per-call
    #: overhead amortized.
    _UNNEST_CHUNK_PARENTS = 65536

    def scan_unnest(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray | None = None,
    ) -> UnnestBuffers:
        """Unnest a nested collection field into flattened buffers, for the
        given parents (all parents when ``None``)."""
        if parent_oids is None:
            parent_oids = np.arange(self.scan_row_count(dataset), dtype=np.int64)
        parent_oids = np.asarray(parent_oids, dtype=np.int64)
        element_paths = [tuple(path) for path in element_paths]
        offsets = range(0, max(len(parent_oids), 1), self._UNNEST_CHUNK_PARENTS)
        chunks = [
            self.scan_unnest_batch(
                dataset,
                collection_path,
                element_paths,
                parent_oids[offset : offset + self._UNNEST_CHUNK_PARENTS],
            )
            for offset in offsets
        ]
        buffers = UnnestBuffers(
            count=sum(chunk.count for chunk in chunks),
            parent_positions=np.concatenate(
                [chunk.parent_positions() + offset for chunk, offset in zip(chunks, offsets)]
            ),
        )
        for path in element_paths:
            buffers.columns[path] = _concat_columns([chunk.column(path) for chunk in chunks])
        return buffers

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


def _concat_columns(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-chunk column buffers.  A chunk-local missing value may
    have demoted one chunk to an object (or NaN-float) buffer; concatenation
    must then widen the whole column exactly as a single-shot conversion
    would, so an explicit object merge avoids NumPy promoting to strings."""
    if len(parts) == 1:
        return parts[0]
    if any(part.dtype == object for part in parts):
        merged = np.empty(sum(len(part) for part in parts), dtype=object)
        position = 0
        for part in parts:
            merged[position : position + len(part)] = part
            position += len(part)
        return merged
    return np.concatenate(parts)


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


