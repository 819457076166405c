"""Binary row input plug-in.

Serves row tables (packed structured arrays).  Row-major binary storage reads
whole tuples, so per-field access gathers from the memory-mapped structured
array; it remains far cheaper than text parsing but costs slightly more than
the column format when only a few fields are needed, which the cost model
reflects.
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
from repro.storage.binary_format import RowTable, read_row_table
from repro.storage.catalog import Dataset, DatasetStatistics


class BinaryRowPlugin(InputPlugin):
    """Input plug-in for row tables produced by
    :func:`repro.storage.binary_format.write_row_table`."""

    format_name = "binary_row"
    field_access_cost = 0.1

    def __init__(self, memory):
        super().__init__(memory)
        self._tables: dict[str, RowTable] = {}
        self._table_lock = make_lock("BinaryRowPlugin._table_lock")

    def _table(self, dataset: Dataset) -> RowTable:
        # Double-checked locking: load the table exactly once even under
        # concurrent first access.  The per-tuple batch shim stays the scan
        # path (supports_scan_ranges is False), so the vectorized tier
        # never splits this format into morsels.
        table = self._tables.get(dataset.name)
        if table is not None:
            return table
        with self._table_lock:
            table = self._tables.get(dataset.name)
            if table is None:
                # One guarded raw-I/O step: the header read + record mmap can
                # fault transiently (retried); a bad header surfaces as
                # corrupt data.  Batch scans go through the base-class shim,
                # which has its own per-batch injection checkpoint.
                table = self.io_guard(
                    "table-load", dataset.name, read_row_table, dataset.path
                )
                self._tables[dataset.name] = table
            return table

    def invalidate(self, dataset_name: str) -> None:
        with self._table_lock:
            self._tables.pop(dataset_name, None)

    # -- schema and statistics -----------------------------------------------

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

    # -- bulk access ------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        table = self._table(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        buffers = ScanBuffers(
            count=table.row_count, oids=np.arange(table.row_count, dtype=np.int64)
        )
        for path in paths:
            name = require_flat_path(path)
            column = np.asarray(table.column(name))
            if column.dtype.kind == "U":
                column = column.astype(object)
            buffers.columns[path] = column
        return buffers

    # -- tuple-at-a-time access ----------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        table = self._table(dataset)
        names = (
            [require_flat_path(path) for path in paths]
            if paths is not None
            else table.schema.field_names()
        )
        data = table.data
        for row in range(table.row_count):
            record = data[row]
            yield {name: _python_value(record[name]) for name in names}

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        table = self._table(dataset)
        name = require_flat_path(path)
        return _python_value(table.data[int(oid)][name])


def _python_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value
