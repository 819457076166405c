"""Cache input plug-in.

Once materialized, Proteus treats its caches as an additional input dataset
(§6): the cache plug-in exposes the binary column caches held by the caching
manager through the same plug-in API as every other format, so the rest of the
engine does not distinguish between reading a raw file and reading a cache.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.caching.manager import CacheManager
from repro.caching.matching import field_cache_key
from repro.core import types as t
from repro.errors import PluginError
from repro.plugins.base import FieldPath, InputPlugin, Rows, row_selector
from repro.storage.catalog import Dataset, DatasetStatistics


class CachePlugin(InputPlugin):
    """Input plug-in over the caching manager's field caches.

    The ``dataset`` handed to this plug-in names the *source* dataset whose
    converted fields live in the cache; the plug-in serves exactly the fields
    that have been cached and refuses the rest, so the planner only routes a
    scan here when every required field is available.
    """

    format_name = "cache"
    field_access_cost = 0.05

    def __init__(
        self,
        memory,
        manager: CacheManager,
        source_plugins: dict[str, InputPlugin] | None = None,
    ):
        super().__init__(memory)
        self.manager = manager
        #: format -> plug-in map for re-routing a scan back to the source
        #: dataset.  The planner pins ``access_path="cache"`` at plan time;
        #: a concurrent invalidation or eviction can remove the entry before
        #: the scan executes, and without the re-route that window surfaces
        #: as a spurious ``PluginError`` to the client.
        self.source_plugins: dict[str, InputPlugin] = source_plugins or {}

    # -- availability -----------------------------------------------------------

    def cached_paths(self, dataset_name: str) -> set[FieldPath]:
        """Field paths of ``dataset_name`` currently served from the cache."""
        paths: set[FieldPath] = set()
        for entry in self.manager.entries_for_dataset(dataset_name):
            if entry.kind == "field":
                paths.add(tuple(entry.key[2]))
        return paths

    def can_serve(self, dataset_name: str, paths: Sequence[FieldPath]) -> bool:
        available = self.cached_paths(dataset_name)
        return all(tuple(path) in available for path in paths)

    # -- schema and statistics ------------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        fields = []
        for entry in self.manager.entries_for_dataset(dataset.name):
            if entry.kind != "field":
                continue
            path = entry.key[2]
            array = entry.data
            dtype = _type_of(array)
            fields.append(t.Field(".".join(path), dtype))
        return t.RecordType(fields)

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        cardinality = 0
        minimums: dict[str, float] = {}
        maximums: dict[str, float] = {}
        for entry in self.manager.entries_for_dataset(dataset.name):
            if entry.kind != "field":
                continue
            array = entry.data
            cardinality = max(cardinality, len(array))
            if array.dtype != object and len(array):
                name = ".".join(entry.key[2])
                minimums[name] = float(np.nanmin(array))
                maximums[name] = float(np.nanmax(array))
        return DatasetStatistics(
            cardinality=cardinality, min_values=minimums, max_values=maximums
        )

    # -- bulk access ------------------------------------------------------------------

    def _source(self, dataset: Dataset, path: FieldPath) -> InputPlugin:
        """The raw plug-in a scan re-routes to when ``path`` left the cache
        after planning (an invalidation / eviction race)."""
        source = self.source_plugins.get(dataset.format)
        if source is None:
            raise PluginError(
                f"field {'.'.join(path)!r} of {dataset.name!r} is not cached"
            )
        return source

    def scan_row_count(self, dataset: Dataset) -> int:
        for entry in self.manager.entries_for_dataset(dataset.name):
            if entry.kind == "field":
                return len(entry.data)
        return self._source(dataset, ()).scan_row_count(dataset)

    def _read(
        self, dataset: Dataset, paths: Sequence[FieldPath], rows: Rows
    ) -> dict[FieldPath, np.ndarray]:
        selector = row_selector(rows)
        columns: dict[FieldPath, np.ndarray] = {}
        for path in paths:
            entry = self.manager.lookup(field_cache_key(dataset.name, path))
            if entry is None:
                # Serve the whole read from the raw source instead.
                return self._source(dataset, path)._read(dataset, paths, rows)
            columns[path] = entry.data[selector]
        return columns

    # -- tuple-at-a-time access ----------------------------------------------------------

    def iterate_rows(
        self, dataset: Dataset, paths: Sequence[FieldPath] | None = None
    ) -> Iterator[dict]:
        if paths is None:
            paths = sorted(self.cached_paths(dataset.name))
        buffers = self.scan_columns(dataset, list(paths))
        names = [".".join(path) for path in paths]
        arrays = [buffers.column(tuple(path)) for path in paths]
        for row in range(buffers.count):
            yield {name: _python_value(array[row]) for name, array in zip(names, arrays)}

    def read_value(self, dataset: Dataset, oid: int, path: FieldPath) -> Any:
        entry = self.manager.lookup(field_cache_key(dataset.name, tuple(path)))
        if entry is None:
            return self._source(dataset, path).read_value(dataset, oid, path)
        return _python_value(entry.data[int(oid)])


def _type_of(array: np.ndarray) -> t.DataType:
    if array.dtype == object:
        return t.STRING
    if array.dtype.kind == "b":
        return t.BOOL
    if array.dtype.kind == "i":
        return t.INT
    return t.FLOAT


def _python_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value
