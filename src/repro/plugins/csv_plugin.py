"""CSV input plug-in.

The CSV plug-in serves raw, comma-separated text files in place, without a
load step.  On first access it memory-maps the file and builds a positional
structural index storing the offsets of every Nth field per row (§5.2); later
accesses slice only the bytes of the fields a query needs and convert them on
the fly.  Converted numeric fields are prime candidates for the adaptive
caches (§6), which is how repeated CSV access amortizes its conversion cost in
the Symantec workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
from repro.errors import PluginError
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    count_missing,
    require_flat_path,
)
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.structural_index import CsvStructuralIndex, build_csv_index


@dataclass
class _CsvState:
    """Per-dataset state kept by the plug-in after the first access."""

    data: bytes
    index: CsvStructuralIndex
    header: list[str]
    build_seconds: float


def _convert_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # Exact decimal parse: a float round-trip would round integers above
        # 2**53 (e.g. "9007199254740993.0").
        from decimal import Decimal, InvalidOperation

        try:
            value = Decimal(text.strip())
        except InvalidOperation:
            return int(float(text))
        # int() truncates toward zero, preserving the old int(float(...))
        # behavior for non-integral text while staying exact above 2**53.
        return int(value)


def _convert_date(text: str) -> int:
    text = text.strip()
    if text.isdigit() or (text.startswith("-") and text[1:].isdigit()):
        return int(text)
    import datetime

    parsed = datetime.date.fromisoformat(text)
    return (parsed - datetime.date(1970, 1, 1)).days


_CONVERTERS = {
    "int": _convert_int,
    "float": float,
    "bool": lambda s: s.strip().lower() in ("1", "true", "t", "yes"),
    "string": str,
    "date": _convert_date,
}

_NUMPY_DTYPES = {
    "int": np.int64,
    "float": np.float64,
    "bool": np.bool_,
    "string": object,
    "date": np.int64,
}


def _typed_array(values: list, type_name: str) -> np.ndarray:
    """Pack converted values into the declared dtype; integers beyond int64
    stay exact in an object buffer rather than wrapping or crashing."""
    try:
        return np.asarray(values, dtype=_NUMPY_DTYPES[type_name])
    except OverflowError:
        array = np.empty(len(values), dtype=object)
        array[:] = values
        return array


class CsvPlugin(InputPlugin):
    """Input plug-in for raw CSV files."""

    format_name = "csv"
    field_access_cost = 1.0
    supports_scan_ranges = True

    def __init__(self, memory):
        super().__init__(memory)
        self._states: dict[str, _CsvState] = {}
        self._state_lock = make_lock("CsvPlugin._state_lock")

    # -- dataset state --------------------------------------------------------

    def _state(self, dataset: Dataset) -> _CsvState:
        # Double-checked locking: concurrent workers hitting a cold dataset
        # must not build (and race to publish) the structural index twice;
        # once published, the state is immutable and read lock-free.
        state = self._states.get(dataset.name)
        if state is not None:
            return state
        with self._state_lock:
            state = self._states.get(dataset.name)
            if state is not None:
                return state
            started = time.perf_counter()
            delimiter = dataset.options.get("delimiter", ",")
            has_header = dataset.options.get("has_header", True)
            stride = dataset.options.get("stride", 5)

            def build() -> tuple:
                # One guarded raw-I/O step: mmap faults retry (RES005 when
                # exhausted), parse failures surface as corrupt data (RES006).
                mapped = self.memory.map_file(dataset.path)
                data = bytes(mapped.data) if mapped.mapped else mapped.data
                index = build_csv_index(
                    data, delimiter=delimiter, has_header=has_header, stride=stride
                )
                return data, index

            data, index = self.io_guard("index-build", dataset.name, build)
            header = self._read_header(
                data, dataset, delimiter, has_header, index.field_count
            )
            state = _CsvState(
                data=data,
                index=index,
                header=header,
                build_seconds=time.perf_counter() - started,
            )
            self._states[dataset.name] = state
            return state

    @staticmethod
    def _read_header(
        data: bytes, dataset: Dataset, delimiter: str, has_header: bool, field_count: int
    ) -> list[str]:
        if has_header and data:
            end = data.find(b"\n")
            if end == -1:
                end = len(data)
            return data[:end].decode("utf-8").rstrip("\r").split(delimiter)
        names = dataset.options.get("column_names")
        if names:
            return list(names)
        return [f"c{i}" for i in range(field_count)]

    def invalidate(self, dataset_name: str) -> None:
        """Drop per-dataset state (used when the underlying file changes)."""
        with self._state_lock:
            self._states.pop(dataset_name, None)

    def index_info(self, dataset: Dataset) -> dict:
        """Structural-index metadata used by the benchmarks (size, build time)."""
        state = self._state(dataset)
        return {
            "size_bytes": state.index.size_bytes,
            "file_bytes": len(state.data),
            "build_seconds": state.build_seconds,
            "rows": state.index.num_rows,
        }

    # -- schema and statistics -------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        state = self._state(dataset)
        sample = min(state.index.num_rows, 100)
        fields: list[t.Field] = []
        for column, name in enumerate(state.header):
            inferred = "int"
            for row in range(sample):
                start, end = state.index.field_span(state.data, row, column)
                text = state.data[start:end].decode("utf-8").strip()
                inferred = _widen(inferred, text)
            fields.append(t.Field(name, t.primitive_type(inferred)))
        return t.RecordType(fields)

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        state = self._state(dataset)
        statistics = DatasetStatistics(cardinality=state.index.num_rows)
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
                statistics.min_values[field.name] = float(np.min(values))
                statistics.max_values[field.name] = float(np.max(values))
        return statistics

    # -- bulk access -----------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        num_rows = state.index.num_rows
        buffers = ScanBuffers(count=num_rows, oids=np.arange(num_rows, dtype=np.int64))
        for path in paths:
            buffers.columns[path] = self._convert_rows(dataset, state, path, range(num_rows))
        return buffers

    def scan_batches(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        batch_size: int = 4096,
    ):
        """Native batched scan: slice and convert one row range at a time using
        the positional structural index (no per-tuple dict assembly)."""
        state = self._state(dataset)
        num_rows = state.index.num_rows
        paths = [tuple(path) for path in paths]
        for start in range(0, num_rows, batch_size):
            self.io_checkpoint("scan-batch", dataset.name)
            stop = min(start + batch_size, num_rows)
            buffers = ScanBuffers(
                count=stop - start, oids=np.arange(start, stop, dtype=np.int64)
            )
            for path in paths:
                buffers.columns[path] = self._convert_rows(
                    dataset, state, path, range(start, stop)
                )
            yield buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._state(dataset).index.num_rows

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ):
        """Range-partitioned scan for morsel-driven parallel execution: the
        positional structural index makes any row range directly addressable,
        so disjoint ranges convert concurrently without shared state."""
        state = self._state(dataset)
        stop = min(stop, state.index.num_rows)
        paths = [tuple(path) for path in paths]
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            buffers = ScanBuffers(
                count=end - begin, oids=np.arange(begin, end, dtype=np.int64)
            )
            for path in paths:
                buffers.columns[path] = self._convert_rows(
                    dataset, state, path, range(begin, end)
                )
            yield buffers

    def _convert_rows(
        self, dataset: Dataset, state: _CsvState, path: FieldPath, rows: range
    ) -> np.ndarray:
        """Slice and convert one field for the given row range."""
        data = state.data
        index = state.index
        name = require_flat_path(path)
        column = self._column_index(state, name)
        type_name = self._field_type_name(dataset, name)
        if type_name in ("int", "float"):
            # Bulk conversion of the sliced field values (the Python
            # analogue of the generated per-field conversion code).
            slices = [
                data[span[0]:span[1]]
                for span in (index.field_span(data, row, column) for row in rows)
            ]
            try:
                floats = (
                    np.asarray(slices).astype(np.float64)
                    if slices else np.zeros(0, dtype=np.float64)
                )
            except ValueError:
                floats = None
            if floats is not None:
                if type_name == "int" and len(floats) and \
                        np.all(floats == np.floor(floats)):
                    if not np.any(np.abs(floats) >= 2.0**53):
                        return floats.astype(np.int64)
                    # Integers beyond 2**53 are not exactly representable in
                    # float64; fall through to the exact per-value converter.
                else:
                    return floats
        converter = _CONVERTERS[type_name]
        values = [
            converter(data[span[0]:span[1]].decode("utf-8"))
            for span in (index.field_span(data, row, column) for row in rows)
        ]
        return _typed_array(values, type_name)

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Selective (lazy) extraction: parse and convert only the given rows."""
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        data = state.data
        index = state.index
        rows = np.asarray(oids, dtype=np.int64)
        buffers = ScanBuffers(count=len(rows), oids=rows)
        for path in paths:
            name = require_flat_path(path)
            column = self._column_index(state, name)
            type_name = self._field_type_name(dataset, name)
            converter = _CONVERTERS[type_name]
            values = [
                converter(data[span[0]:span[1]].decode("utf-8"))
                for span in (index.field_span(data, int(row), column) for row in rows)
            ]
            buffers.columns[path] = _typed_array(values, type_name)
        return buffers

    # -- tuple-at-a-time access --------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        state = self._state(dataset)
        names = (
            [require_flat_path(path) for path in paths]
            if paths is not None
            else list(state.header)
        )
        columns = [self._column_index(state, name) for name in names]
        converters = [
            _CONVERTERS[self._field_type_name(dataset, name)] for name in names
        ]
        data = state.data
        index = state.index
        for row in range(index.num_rows):
            record: dict[str, Any] = {}
            for name, column, converter in zip(names, columns, converters):
                start, end = index.field_span(data, row, column)
                record[name] = converter(data[start:end].decode("utf-8"))
            yield record

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        state = self._state(dataset)
        name = require_flat_path(path)
        column = self._column_index(state, name)
        start, end = state.index.field_span(state.data, int(oid), column)
        converter = _CONVERTERS[self._field_type_name(dataset, name)]
        return converter(state.data[start:end].decode("utf-8"))

    # -- costing ------------------------------------------------------------------

    def scan_cost(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        statistics: DatasetStatistics | None,
    ) -> float:
        cardinality = statistics.cardinality if statistics is not None else 1_000_000
        # Parsing plus conversion per value; the structural index spares the
        # engine from parsing fields it does not need.
        return cardinality * self.field_access_cost * max(len(paths), 1)

    # -- helpers -------------------------------------------------------------------

    def _column_index(self, state: _CsvState, name: str) -> int:
        try:
            return state.header.index(name)
        except ValueError as exc:
            raise PluginError(
                f"CSV file has no column {name!r}; columns: {state.header}"
            ) from exc

    @staticmethod
    def _field_type_name(dataset: Dataset, name: str) -> str:
        if dataset.schema is not None and dataset.schema.has_field(name):
            return dataset.schema.field_type(name).name
        return "string"


def _widen(current: str, text: str) -> str:
    """Widen an inferred column type to accommodate ``text``."""
    if current == "string":
        return "string"
    if text == "":
        return current
    try:
        int(text)
        return current
    except ValueError:
        pass
    try:
        float(text)
        return "float" if current in ("int", "float") else "string"
    except ValueError:
        return "string"
