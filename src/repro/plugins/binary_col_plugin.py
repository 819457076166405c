"""Binary column input plug-in.

Serves column tables ("binary column files similar to the ones of MonetDB",
§7.1).  Columns are memory-mapped and handed to the generated code directly,
so a scan that touches K columns reads exactly K arrays — the cheapest access
path of the engine, which is why the cost model and the cache-eviction bias
rank binary data below CSV and JSON.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    count_missing,
    require_flat_path,
)
from repro.storage.binary_format import ColumnTable, read_column_table
from repro.storage.catalog import Dataset, DatasetStatistics


class BinaryColumnPlugin(InputPlugin):
    """Input plug-in for column tables produced by
    :func:`repro.storage.binary_format.write_column_table`."""

    format_name = "binary_column"
    field_access_cost = 0.05
    supports_scan_ranges = True

    def __init__(self, memory):
        super().__init__(memory)
        self._tables: dict[str, ColumnTable] = {}
        self._table_lock = make_lock("BinaryColumnPlugin._table_lock")

    def _table(self, dataset: Dataset) -> ColumnTable:
        # Double-checked locking: load the memory-mapped table exactly once
        # even under concurrent first access from parallel workers.
        table = self._tables.get(dataset.name)
        if table is not None:
            return table
        with self._table_lock:
            table = self._tables.get(dataset.name)
            if table is None:
                # One guarded raw-I/O step: header reads and column mmaps can
                # fault transiently (retried), a bad header parses into
                # ValueError (surfaced as corrupt data).
                table = self.io_guard(
                    "table-load", dataset.name, read_column_table, dataset.path
                )
                self._tables[dataset.name] = table
            return table

    def invalidate(self, dataset_name: str) -> None:
        with self._table_lock:
            self._tables.pop(dataset_name, None)

    # -- schema and statistics -------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        return self._table(dataset).schema

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        table = self._table(dataset)
        statistics = DatasetStatistics(cardinality=table.row_count)
        for field in table.schema.fields:
            column = table.column(field.name)
            statistics.null_counts[field.name] = count_missing(column)
            if not field.dtype.is_numeric():
                continue
            if len(column):
                statistics.min_values[field.name] = float(np.min(column))
                statistics.max_values[field.name] = float(np.max(column))
        return statistics

    # -- bulk access --------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        table = self._table(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        buffers = ScanBuffers(
            count=table.row_count, oids=np.arange(table.row_count, dtype=np.int64)
        )
        for path in paths:
            name = require_flat_path(path)
            buffers.columns[path] = np.asarray(table.column(name))
        return buffers

    def scan_batches(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        batch_size: int = 4096,
    ):
        """Native batched scan: each batch is a zero-copy slice of the
        memory-mapped column arrays."""
        table = self._table(dataset)
        paths = [tuple(path) for path in paths]
        arrays = {
            path: np.asarray(table.column(require_flat_path(path))) for path in paths
        }
        for start in range(0, table.row_count, batch_size):
            self.io_checkpoint("scan-batch", dataset.name)
            stop = min(start + batch_size, table.row_count)
            buffers = ScanBuffers(
                count=stop - start, oids=np.arange(start, stop, dtype=np.int64)
            )
            for path in paths:
                buffers.columns[path] = arrays[path][start:stop]
            yield buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._table(dataset).row_count

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ):
        """Range-partitioned scan for morsel-driven parallel execution: each
        batch is a zero-copy slice of the memory-mapped column arrays, so
        disjoint ranges are trivially safe to serve concurrently."""
        table = self._table(dataset)
        stop = min(stop, table.row_count)
        paths = [tuple(path) for path in paths]
        arrays = {
            path: np.asarray(table.column(require_flat_path(path))) for path in paths
        }
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            buffers = ScanBuffers(
                count=end - begin, oids=np.arange(begin, end, dtype=np.int64)
            )
            for path in paths:
                buffers.columns[path] = arrays[path][begin:end]
            yield buffers

    # -- tuple-at-a-time access -----------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        table = self._table(dataset)
        names = (
            [require_flat_path(path) for path in paths]
            if paths is not None
            else table.schema.field_names()
        )
        columns = [table.column(name) for name in names]
        for row in range(table.row_count):
            yield {name: _python_value(column[row]) for name, column in zip(names, columns)}

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        table = self._table(dataset)
        name = require_flat_path(path)
        return _python_value(table.column(name)[int(oid)])


def _python_value(value: Any) -> Any:
    """Convert NumPy scalars to plain Python values for tuple-at-a-time use."""
    if isinstance(value, np.generic):
        return value.item()
    return value
