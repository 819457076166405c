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
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    Rows,
    count_missing,
    require_flat_path,
    row_selector,
)
from repro.storage.binary_format import ColumnTable, read_column_table
from repro.storage.catalog import Dataset, DatasetStatistics


class BinaryColumnPlugin(InputPlugin):
    """Input plug-in for column tables produced by
    :func:`repro.storage.binary_format.write_column_table`."""

    format_name = "binary_column"
    field_access_cost = 0.05

    def _build_state(self, dataset: Dataset) -> ColumnTable:
        # One guarded raw-I/O step: header reads and column mmaps can fault
        # transiently (retried), a bad header parses into ValueError
        # (surfaced as corrupt data).
        return self.io_guard("table-load", dataset.name, read_column_table, dataset.path)

    # -- schema and statistics -------------------------------------------------

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

    # -- bulk access --------------------------------------------------------------

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._state(dataset).row_count

    def _read(
        self, dataset: Dataset, paths: Sequence[FieldPath], rows: Rows
    ) -> dict[FieldPath, np.ndarray]:
        """Row ranges are zero-copy slices of the memory-mapped columns, so
        disjoint ranges are trivially safe to serve concurrently."""
        table = self._state(dataset)
        selector = row_selector(rows)
        return {
            path: np.asarray(table.column(require_flat_path(path)))[selector]
            for path in paths
        }

    # -- tuple-at-a-time access -----------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        table = self._state(dataset)
        names = (
            [require_flat_path(path) for path in paths]
            if paths is not None
            else table.schema.field_names()
        )
        columns = [table.column(name) for name in names]
        for row in range(table.row_count):
            yield {name: _python_value(column[row]) for name, column in zip(names, columns)}

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        table = self._state(dataset)
        name = require_flat_path(path)
        return _python_value(table.column(name)[int(oid)])


def _python_value(value: Any) -> Any:
    """Convert NumPy scalars to plain Python values for tuple-at-a-time use."""
    if isinstance(value, np.generic):
        return value.item()
    return value
