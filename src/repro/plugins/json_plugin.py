"""JSON input plug-in.

The JSON plug-in queries raw JSON object streams (one object per line, or
whitespace-separated) in place.  On the first access it validates the file and
builds the two-level structural index of §5.2: Level 1 stores the byte span
and type of every token per object, Level 0 maps field paths to Level-1
entries so that schema flexibility (arbitrary field order, optional fields)
does not force a sequential token scan.  When every object carries the same
fields in the same order, Level 0 is dropped (fixed-schema specialization).

Scans slice only the spans of the fields a query needs — nested paths included
— and convert them to binary values on the fly; nested arrays are handled by
the Unnest operator through :meth:`JsonPlugin.scan_unnest`, which parses only
the array spans.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
from repro.errors import PluginError
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    UnnestBatch,
    UnnestBuffers,
    count_missing,
    dig_path as _dig,
)
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.structural_index import (
    JsonStructuralIndex,
    TYPE_ARRAY,
    TYPE_BOOL,
    TYPE_NULL,
    TYPE_NUMBER,
    TYPE_OBJECT,
    TYPE_STRING,
    build_json_index,
)


@dataclass
class _JsonState:
    """Per-dataset state kept after the first (validating) access."""

    data: bytes
    index: JsonStructuralIndex
    build_seconds: float


class JsonPlugin(InputPlugin):
    """Input plug-in for raw JSON object streams."""

    format_name = "json"
    field_access_cost = 2.5
    supports_scan_ranges = True

    def __init__(self, memory):
        super().__init__(memory)
        self._states: dict[str, _JsonState] = {}
        self._state_lock = make_lock("JsonPlugin._state_lock")

    # -- dataset state ---------------------------------------------------------

    def _state(self, dataset: Dataset) -> _JsonState:
        # Double-checked locking: the structural index must be built exactly
        # once even when parallel workers hit a cold dataset concurrently;
        # after publication the state is immutable and read lock-free.
        state = self._states.get(dataset.name)
        if state is not None:
            return state
        with self._state_lock:
            state = self._states.get(dataset.name)
            if state is not None:
                return state
            started = time.perf_counter()

            def build() -> tuple:
                # One guarded raw-I/O step: the mmap (where a transient
                # OSError can surface) plus the structural-index parse
                # (where corrupt bytes surface as ValueError -> RES006).
                mapped = self.memory.map_file(dataset.path)
                data = bytes(mapped.data) if mapped.mapped else mapped.data
                index = build_json_index(
                    data, max_depth=dataset.options.get("max_depth", 8)
                )
                return data, index

            data, index = self.io_guard("index-build", dataset.name, build)
            state = _JsonState(
                data=data, index=index, build_seconds=time.perf_counter() - started
            )
            self._states[dataset.name] = state
            return state

    def invalidate(self, dataset_name: str) -> None:
        """Drop per-dataset state (used when the underlying file changes)."""
        with self._state_lock:
            self._states.pop(dataset_name, None)

    def index_info(self, dataset: Dataset) -> dict:
        """Structural-index metadata used by the benchmarks."""
        state = self._state(dataset)
        return {
            "size_bytes": state.index.size_bytes,
            "file_bytes": len(state.data),
            "build_seconds": state.build_seconds,
            "objects": state.index.num_objects,
            "fixed_schema": state.index.fixed_schema,
        }

    # -- schema and statistics ----------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        state = self._state(dataset)
        sample_size = min(dataset.options.get("sample_size", 50), state.index.num_objects)
        merged: t.DataType | None = None
        for position in range(sample_size):
            start, end = state.index.object_span(position)
            record = json.loads(state.data[start:end])
            inferred = t.infer_type(record)
            merged = inferred if merged is None else t.merge_types(merged, inferred)
        if merged is None:
            return t.RecordType([])
        if not isinstance(merged, t.RecordType):
            raise PluginError("JSON dataset does not contain objects")
        return merged

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        state = self._state(dataset)
        statistics = DatasetStatistics(cardinality=state.index.num_objects)
        for field in dataset.schema.fields:
            if isinstance(field.dtype, (t.RecordType, t.CollectionType)):
                continue
            try:
                values = self.scan_columns(dataset, [(field.name,)]).column((field.name,))
            except PluginError:
                continue
            statistics.null_counts[field.name] = count_missing(values)
            if not field.dtype.is_numeric():
                continue
            if len(values):
                statistics.min_values[field.name] = float(np.nanmin(values))
                statistics.max_values[field.name] = float(np.nanmax(values))
        return statistics

    # -- bulk access ----------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        count = state.index.num_objects
        buffers = ScanBuffers(count=count, oids=np.arange(count, dtype=np.int64))
        for path in paths:
            buffers.columns[path] = self._extract_column(dataset, state, path)
        return buffers

    def scan_batches(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        batch_size: int = 4096,
    ):
        """Native batched scan: extract each column for one object range at a
        time through the structural index (missing numeric fields surface as
        NaN, exactly as in :meth:`scan_columns`)."""
        state = self._state(dataset)
        count = state.index.num_objects
        for start in range(0, count, batch_size):
            self.io_checkpoint("scan-batch", dataset.name)
            stop = min(start + batch_size, count)
            positions = np.arange(start, stop, dtype=np.int64)
            buffers = ScanBuffers(count=stop - start, oids=positions)
            for path in paths:
                buffers.columns[tuple(path)] = self._extract_column(
                    dataset, state, tuple(path), positions=positions
                )
            yield buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._state(dataset).index.num_objects

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ):
        """Range-partitioned scan for morsel-driven parallel execution: the
        structural index addresses any object range directly, so disjoint
        ranges extract concurrently without shared state."""
        state = self._state(dataset)
        stop = min(stop, state.index.num_objects)
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            positions = np.arange(begin, end, dtype=np.int64)
            buffers = ScanBuffers(count=end - begin, oids=positions)
            for path in paths:
                buffers.columns[tuple(path)] = self._extract_column(
                    dataset, state, tuple(path), positions=positions
                )
            yield buffers

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Selective (lazy) extraction: convert fields only for the given objects."""
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        rows = np.asarray(oids, dtype=np.int64)
        buffers = ScanBuffers(count=len(rows), oids=rows)
        for path in paths:
            buffers.columns[tuple(path)] = self._extract_column(
                dataset, state, tuple(path), positions=rows
            )
        return buffers

    def _extract_column(
        self,
        dataset: Dataset,
        state: _JsonState,
        path: FieldPath,
        positions: np.ndarray | None = None,
    ) -> np.ndarray:
        key = ".".join(path)
        data = state.data
        index = state.index
        dtype_name = self._field_type_name(dataset, path)
        objects: list[int] = (
            list(range(index.num_objects))
            if positions is None
            else [int(p) for p in positions]
        )
        if dtype_name in ("int", "float", "date"):
            column = self._extract_numeric_column(state, key, dtype_name, objects)
            if column is not None:
                return column
        values: list[Any] = []
        for position in objects:
            span = index.field_span(position, key)
            if span is None:
                values.append(None)
                continue
            start, end, type_code = span
            values.append(_convert_span(data, start, end, type_code))
        return _to_array(values, dtype_name)

    @staticmethod
    def _extract_numeric_column(
        state: _JsonState, key: str, dtype_name: str, objects: list[int]
    ) -> np.ndarray | None:
        """Fast path for numeric fields: slice the value spans and convert them
        in bulk (the Python analogue of the generated conversion code).
        Returns ``None`` when a non-numeric token is encountered."""
        data = state.data
        index = state.index
        slices: list[bytes] = []
        missing = False
        vectorized = index.column_spans(key, objects if objects is not None else None)
        if vectorized is not None:
            starts, ends, types = vectorized
            if not np.all((types == TYPE_NUMBER) | (types == TYPE_NULL) | (starts < 0)):
                return None
            start_list = starts.tolist()
            end_list = ends.tolist()
            type_list = types.tolist()
            for start, end, type_code in zip(start_list, end_list, type_list):
                if start < 0 or type_code == TYPE_NULL:
                    slices.append(b"nan")
                    missing = True
                else:
                    slices.append(data[start:end])
        else:
            for position in objects:
                span = index.field_span(position, key)
                if span is None:
                    slices.append(b"nan")
                    missing = True
                    continue
                start, end, type_code = span
                if type_code == TYPE_NUMBER:
                    slices.append(data[start:end])
                elif type_code == TYPE_NULL:
                    slices.append(b"nan")
                    missing = True
                else:
                    return None
        if not slices:
            return np.zeros(0, dtype=np.float64)
        try:
            floats = np.asarray(slices).astype(np.float64)
        except ValueError:
            return None
        if dtype_name in ("int", "date"):
            finite = floats[np.isfinite(floats)]
            if len(finite) and np.any(np.abs(finite) >= 2.0**53):
                # Integers beyond 2**53 are not exactly representable in
                # float64; fall back to the exact per-span conversion path
                # (whether or not some values are missing).
                return None
            if not missing and np.all(floats == np.floor(floats)):
                return floats.astype(np.int64)
        return floats

    def scan_unnest_batch(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray,
        outer: bool = False,
    ) -> UnnestBatch:
        """Batch-native unnest: one offset-vector pass over the parent batch.

        The structural index resolves every requested parent's array span in
        one vectorized lookup (``column_spans``) where the schema is fixed;
        only the array spans themselves are parsed.  Flattened element values
        are collected once per element path and converted in one bulk
        ``_to_array`` call — no per-parent buffers, no per-element Python
        round-trips through the Table-2 iterator protocol.
        """
        self.io_checkpoint("scan-unnest", dataset.name)
        state = self._state(dataset)
        data = state.data
        index = state.index
        key = ".".join(collection_path)
        element_paths = [tuple(path) for path in element_paths]
        num_parents = len(parent_oids)
        spans = index.column_spans(key, np.asarray(parent_oids, dtype=np.int64))
        if spans is not None:
            # Fixed-schema fast path: the span triple of every parent comes
            # from three dense array gathers; present/absent/null collections
            # are classified with vectorized masks.
            starts, ends, types = spans
            present = (starts >= 0) & (types != TYPE_NULL)
            if not np.all(types[present] == TYPE_ARRAY):
                raise PluginError(f"field {key!r} is not a nested collection")
            present_slots = np.nonzero(present)[0]
            start_list = starts[present_slots].tolist()
            end_list = ends[present_slots].tolist()
        else:
            present_slots_list: list[int] = []
            start_list = []
            end_list = []
            for slot, position in enumerate(parent_oids):
                span = index.field_span(int(position), key)
                if span is None:
                    continue
                start, end, type_code = span
                if type_code == TYPE_NULL:
                    continue
                if type_code != TYPE_ARRAY:
                    raise PluginError(f"field {key!r} is not a nested collection")
                present_slots_list.append(slot)
                start_list.append(start)
                end_list.append(end)
            present_slots = np.asarray(present_slots_list, dtype=np.int64)
        # Slice every present array span (C-level slice objects) and parse
        # them all with ONE ``json.loads`` of the joined spans: the
        # per-parent decoder round-trip is the dominant cost of the
        # per-parent path.
        chunks = map(data.__getitem__, map(slice, start_list, end_list))
        joined = b"[" + b",".join(chunks) + b"]"
        parsed = json.loads(joined) if len(present_slots) else []
        collections = np.empty(num_parents, dtype=object)
        collections.fill(())
        if len(parsed):
            scattered = np.empty(len(parsed), dtype=object)
            scattered[:] = parsed
            collections[present_slots] = scattered
        collections = collections.tolist()
        if outer:
            # The null child row an outer unnest emits for an empty or
            # missing collection: one None element.
            collections = [
                elements if elements else (None,) for elements in collections
            ]
        # Offset vector + one flattened element list, both built C-side.
        repeats = np.fromiter(
            map(len, collections), dtype=np.int64, count=len(collections)
        )
        flat = list(chain.from_iterable(collections))
        batch = UnnestBatch(count=len(flat), repeats=repeats)
        for path in element_paths:
            values = _extract_element_values(flat, path)
            batch.columns[path] = _to_array(
                values, self._element_type_name(dataset, collection_path, path)
            )
        return batch

    #: Parents flattened per ``scan_unnest_batch`` call when ``scan_unnest``
    #: covers a whole dataset: bounds peak memory (joined spans + parsed
    #: element dicts are alive per chunk only, like the batch tiers' 4096-
    #: parent batches) while keeping the per-call overhead amortized.
    _UNNEST_CHUNK_PARENTS = 65536

    def scan_unnest(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray | None = None,
    ) -> UnnestBuffers:
        if parent_oids is None:
            count = self._state(dataset).index.num_objects
            parent_oids = np.arange(count, dtype=np.int64)
        element_paths = [tuple(path) for path in element_paths]
        chunks = [
            self.scan_unnest_batch(
                dataset,
                collection_path,
                element_paths,
                parent_oids[start : start + self._UNNEST_CHUNK_PARENTS],
            )
            for start in range(0, len(parent_oids), self._UNNEST_CHUNK_PARENTS)
        ] or [
            self.scan_unnest_batch(
                dataset, collection_path, element_paths, parent_oids
            )
        ]
        positions = [chunk.parent_positions() for chunk in chunks]
        for index, offset in enumerate(
            range(0, len(parent_oids), self._UNNEST_CHUNK_PARENTS)
        ):
            positions[index] += offset
        buffers = UnnestBuffers(
            count=sum(chunk.count for chunk in chunks),
            parent_positions=(
                np.concatenate(positions) if positions else np.zeros(0, np.int64)
            ),
        )
        for path in element_paths:
            buffers.columns[path] = _concat_columns(
                [chunk.column(path) for chunk in chunks]
            )
        return buffers

    # -- tuple-at-a-time access -------------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        state = self._state(dataset)
        data = state.data
        index = state.index
        if paths is None:
            for position in range(index.num_objects):
                start, end = index.object_span(position)
                yield json.loads(data[start:end])
            return
        keys = [".".join(path) for path in paths]
        for position in range(index.num_objects):
            record: dict[str, Any] = {}
            for path, key in zip(paths, keys):
                span = index.field_span(position, key)
                if span is None:
                    value = self._read_via_parse(state, position, path)
                else:
                    start, end, type_code = span
                    value = _convert_span(data, start, end, type_code)
                _assign(record, path, value)
            yield record

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        state = self._state(dataset)
        span = state.index.field_span(int(oid), ".".join(path))
        if span is None:
            return self._read_via_parse(state, int(oid), path)
        start, end, type_code = span
        return _convert_span(state.data, start, end, type_code)

    def read_path(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        return self.read_value(dataset, oid, path)

    # -- costing -------------------------------------------------------------------------

    def scan_cost(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        statistics: DatasetStatistics | None,
    ) -> float:
        cardinality = statistics.cardinality if statistics is not None else 1_000_000
        return cardinality * self.field_access_cost * max(len(paths), 1)

    # -- helpers -------------------------------------------------------------------------

    def _read_via_parse(self, state: _JsonState, position: int, path: FieldPath) -> Any:
        """Fallback for paths not present in the structural index (e.g. a field
        nested inside an array element)."""
        start, end = state.index.object_span(position)
        record = json.loads(state.data[start:end])
        return _dig(record, path)

    @staticmethod
    def _field_type_name(dataset: Dataset, path: FieldPath) -> str:
        if dataset.schema is None:
            return "float"
        try:
            resolved = dataset.schema.resolve_path(path)
        except Exception:
            return "float"
        return resolved.name if resolved.is_primitive() else "string"

    @staticmethod
    def _element_type_name(
        dataset: Dataset, collection_path: FieldPath, element_path: FieldPath
    ) -> str:
        if dataset.schema is None:
            return "float"
        try:
            collection = dataset.schema.resolve_path(collection_path)
        except Exception:
            return "float"
        if not isinstance(collection, t.CollectionType):
            return "float"
        element = collection.element
        if not element_path:
            return element.name if element.is_primitive() else "string"
        if isinstance(element, t.RecordType):
            try:
                resolved = element.resolve_path(element_path)
            except Exception:
                return "float"
            return resolved.name if resolved.is_primitive() else "string"
        return "float"


# ---------------------------------------------------------------------------
# Span conversion helpers
# ---------------------------------------------------------------------------


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


def _extract_element_values(flat: list, path: FieldPath) -> list:
    """One element field, gathered across a flattened element list.

    The hot path is an ``operator.itemgetter`` map (C-level) that succeeds
    whenever every element is a dict carrying the field; schema-flexible
    inputs (missing fields, scalar or null elements) fall back to the shared
    ``dig_path`` rule.
    """
    if not path:
        return list(flat)
    if len(path) == 1:
        try:
            return list(map(operator.itemgetter(path[0]), flat))
        except (KeyError, TypeError, IndexError):
            pass
    return [_dig(element, path) for element in flat]


def _convert_span(data: bytes, start: int, end: int, type_code: int) -> Any:
    text = data[start:end]
    if type_code == TYPE_NUMBER:
        decoded = text.decode("utf-8")
        if "." in decoded or "e" in decoded or "E" in decoded:
            return float(decoded)
        return int(decoded)
    if type_code == TYPE_STRING:
        return json.loads(text)
    if type_code == TYPE_BOOL:
        return text == b"true"
    if type_code == TYPE_NULL:
        return None
    # objects and arrays: parse the span only
    return json.loads(text)


def _assign(record: dict, path: FieldPath, value: Any) -> None:
    current = record
    for step in path[:-1]:
        current = current.setdefault(step, {})
    current[path[-1] if path else "value"] = value


def _to_array(values: list, dtype_name: str) -> np.ndarray:
    """Convert extracted values to a NumPy buffer, mapping missing numeric
    values to NaN so vectorized predicates remain well-defined.  Values that do
    not convert to the declared type fall back to an object buffer (schema
    flexibility must never fail a scan)."""
    try:
        if dtype_name in ("int", "date"):
            try:
                # Clean integer columns convert C-side in one shot; None or
                # out-of-range values raise and take the per-value path.
                return np.asarray(values, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                pass
            if any(v is None for v in values):
                if any(
                    v is not None and abs(int(v)) >= 2**53 for v in values
                ):
                    # NaN-encoding would round these; keep exact ints (and
                    # None) in an object buffer.
                    array = np.empty(len(values), dtype=object)
                    array[:] = values
                    return array
                return np.asarray(
                    [np.nan if v is None else float(v) for v in values], dtype=np.float64
                )
            return np.asarray([int(v) for v in values], dtype=np.int64)
        if dtype_name == "float":
            try:
                # NumPy converts None to NaN for float dtypes, which is
                # exactly this engine's missing-value encoding.
                return np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                pass
            return np.asarray(
                [np.nan if v is None else float(v) for v in values], dtype=np.float64
            )
        if dtype_name == "bool":
            if any(v is None for v in values):
                # A missing boolean must stay missing: ``bool(None)`` would
                # materialize as False and make predicates / NULLS LAST sorts
                # / aggregates diverge from the tuple-at-a-time tier.  Object
                # buffers carry None through ``types.is_missing``.
                array = np.empty(len(values), dtype=object)
                array[:] = [None if v is None else bool(v) for v in values]
                return array
            return np.asarray([bool(v) for v in values], dtype=np.bool_)
    except (TypeError, ValueError, OverflowError):
        pass
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array
