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
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    Rows,
    count_missing,
    require_flat_path,
    row_selector,
)
from repro.storage.binary_format import RowTable, read_row_table
from repro.storage.catalog import Dataset, DatasetStatistics


class BinaryRowPlugin(InputPlugin):
    """Input plug-in for row tables produced by
    :func:`repro.storage.binary_format.write_row_table`."""

    format_name = "binary_row"
    field_access_cost = 0.1

    def _build_state(self, dataset: Dataset) -> RowTable:
        # One guarded raw-I/O step: the header read + record mmap can fault
        # transiently (retried); a bad header surfaces as corrupt data.
        return self.io_guard("table-load", dataset.name, read_row_table, dataset.path)

    # -- schema and statistics -----------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        return self._state(dataset).schema

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        table = self._state(dataset)
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

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._state(dataset).row_count

    def _read(
        self, dataset: Dataset, paths: Sequence[FieldPath], rows: Rows
    ) -> dict[FieldPath, np.ndarray]:
        """Per-field gathers (strided views for a row range) from the
        memory-mapped structured array; fixed-width strings become object
        buffers, the engine's string representation."""
        table = self._state(dataset)
        selector = row_selector(rows)
        columns: dict[FieldPath, np.ndarray] = {}
        for path in paths:
            column = np.asarray(table.column(require_flat_path(path)))[selector]
            if column.dtype.kind == "U":
                column = column.astype(object)
            columns[path] = column
        return columns

    # -- tuple-at-a-time access ----------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        table = self._state(dataset)
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
        table = self._state(dataset)
        name = require_flat_path(path)
        return _python_value(table.data[int(oid)][name])


def _python_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value
