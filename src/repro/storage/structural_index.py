"""Structural indexes over raw CSV and JSON files (§5.2 of the paper).

Structural indexes store *positional* information about fields in verbose
text formats instead of data values, so that the engine can navigate straight
to the bytes it needs rather than re-parsing whole records:

* :class:`CsvStructuralIndex` stores the byte offset of every row and of every
  Nth field within each row (the paper stores the positions of the 1st, 11th,
  21st ... fields when N=10).  Locating a field starts from the closest
  anchored position and seeks forward.
* :class:`JsonStructuralIndex` is built during the first (validating) access
  to a JSON dataset.  "Level 1" keeps, per object, the byte span and type of
  every token (top-level fields, nested record fields flattened into dotted
  paths, and arrays as opaque spans).  "Level 0" is an associative array from
  field path to the Level-1 entry, which removes the sequential scan over the
  object's tokens that schema flexibility would otherwise force.  When every
  object carries the same fields in the same order the index detects the
  *fixed schema* case and drops Level 0, keeping a single shared field list.

Array contents are deliberately *not* registered in Level 0: nested
collections are handled by the explicit Unnest operator, whose code path
applies the same action to every element and is therefore insensitive to
schema flexibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import StorageError

# Token type codes stored in Level 1.
TYPE_NUMBER = 0
TYPE_STRING = 1
TYPE_BOOL = 2
TYPE_NULL = 3
TYPE_OBJECT = 4
TYPE_ARRAY = 5

TYPE_NAMES = {
    TYPE_NUMBER: "number",
    TYPE_STRING: "string",
    TYPE_BOOL: "bool",
    TYPE_NULL: "null",
    TYPE_OBJECT: "object",
    TYPE_ARRAY: "array",
}


# ---------------------------------------------------------------------------
# CSV structural index
# ---------------------------------------------------------------------------


class CsvStructuralIndex:
    """Positional index over a CSV byte buffer.

    The index stores, for every data row, the byte offset where the row starts
    and the offsets of every ``stride``-th field.  ``field_span`` seeks from
    the nearest anchored field, so a larger stride trades index size for seek
    work — exactly the knob described in the paper.
    """

    def __init__(
        self,
        row_starts: np.ndarray,
        row_ends: np.ndarray,
        anchors: np.ndarray,
        stride: int,
        field_count: int,
        delimiter: bytes,
    ):
        self.row_starts = row_starts
        self.row_ends = row_ends
        self.anchors = anchors
        self.stride = stride
        self.field_count = field_count
        self.delimiter = delimiter

    @property
    def num_rows(self) -> int:
        return len(self.row_starts)

    @property
    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the index."""
        return int(self.row_starts.nbytes + self.row_ends.nbytes + self.anchors.nbytes)

    def row_span(self, row: int) -> tuple[int, int]:
        return int(self.row_starts[row]), int(self.row_ends[row])

    def field_span(self, data: bytes, row: int, field_index: int) -> tuple[int, int]:
        """Return the byte span ``[start, end)`` of one field of one row."""
        if field_index < 0 or field_index >= self.field_count:
            raise StorageError(
                f"field index {field_index} out of range (0..{self.field_count - 1})"
            )
        anchor_slot = field_index // self.stride
        start = int(self.anchors[row, anchor_slot])
        current = anchor_slot * self.stride
        delim = self.delimiter
        row_end = int(self.row_ends[row])
        while current < field_index:
            next_delim = data.find(delim, start, row_end)
            if next_delim == -1:
                raise StorageError(
                    f"row {row} has fewer than {field_index + 1} fields"
                )
            start = next_delim + 1
            current += 1
        end = data.find(delim, start, row_end)
        if end == -1:
            end = row_end
        return start, end


def build_csv_index(
    data: bytes,
    delimiter: str = ",",
    has_header: bool = True,
    stride: int = 5,
) -> CsvStructuralIndex:
    """Build a :class:`CsvStructuralIndex` over a CSV byte buffer."""
    if stride < 1:
        raise StorageError("stride must be at least 1")
    delim = delimiter.encode()
    length = len(data)
    position = 0
    if has_header and length:
        header_end = data.find(b"\n", 0)
        if header_end == -1:
            header_end = length
        header = data[:header_end]
        field_count = header.count(delim) + 1
        position = header_end + 1
    else:
        first_end = data.find(b"\n", 0)
        if first_end == -1:
            first_end = length
        field_count = data[:first_end].count(delim) + 1 if length else 0

    row_starts: list[int] = []
    row_ends: list[int] = []
    anchor_rows: list[list[int]] = []
    anchor_count = (field_count + stride - 1) // stride if field_count else 0

    while position < length:
        end = data.find(b"\n", position)
        if end == -1:
            end = length
        if end > position:  # skip blank lines
            row_starts.append(position)
            row_ends.append(end)
            anchors = [position]
            cursor = position
            for slot in range(1, anchor_count):
                target = slot * stride
                current = (slot - 1) * stride
                while current < target:
                    next_delim = data.find(delim, cursor, end)
                    if next_delim == -1:
                        cursor = end
                        break
                    cursor = next_delim + 1
                    current += 1
                anchors.append(cursor)
            anchor_rows.append(anchors)
        position = end + 1

    return CsvStructuralIndex(
        row_starts=np.asarray(row_starts, dtype=np.int64),
        row_ends=np.asarray(row_ends, dtype=np.int64),
        anchors=np.asarray(anchor_rows, dtype=np.int64).reshape(len(row_starts), -1)
        if row_starts
        else np.zeros((0, max(anchor_count, 1)), dtype=np.int64),
        stride=stride,
        field_count=field_count,
        delimiter=delim,
    )


# ---------------------------------------------------------------------------
# JSON tokenizer with span recording
# ---------------------------------------------------------------------------


@dataclass
class TokenEntry:
    """One Level-1 entry: a field path, its value span and its type."""

    path: str
    start: int
    end: int
    type_code: int


def _skip_whitespace(data: bytes, position: int) -> int:
    while position < len(data) and data[position] in b" \t\r\n":
        position += 1
    return position


def _skip_string(data: bytes, position: int) -> int:
    """``position`` points at the opening quote; returns index after closing quote."""
    position += 1
    while position < len(data):
        byte = data[position]
        if byte == 0x5C:  # backslash
            position += 2
            continue
        if byte == 0x22:  # double quote
            return position + 1
        position += 1
    raise StorageError("unterminated string in JSON input")


def _skip_value(data: bytes, position: int) -> tuple[int, int]:
    """Skip one JSON value starting at ``position``; return (end, type_code)."""
    position = _skip_whitespace(data, position)
    if position >= len(data):
        raise StorageError("unexpected end of JSON input")
    byte = data[position]
    if byte == 0x22:  # string
        return _skip_string(data, position), TYPE_STRING
    if byte == 0x7B:  # object
        return _skip_container(data, position, 0x7B, 0x7D), TYPE_OBJECT
    if byte == 0x5B:  # array
        return _skip_container(data, position, 0x5B, 0x5D), TYPE_ARRAY
    if data.startswith(b"true", position):
        return position + 4, TYPE_BOOL
    if data.startswith(b"false", position):
        return position + 5, TYPE_BOOL
    if data.startswith(b"null", position):
        return position + 4, TYPE_NULL
    # number
    end = position
    while end < len(data) and data[end] in b"-+.eE0123456789":
        end += 1
    if end == position:
        raise StorageError(f"invalid JSON value at byte {position}")
    return end, TYPE_NUMBER


def _skip_container(data: bytes, position: int, open_byte: int, close_byte: int) -> int:
    depth = 0
    i = position
    while i < len(data):
        byte = data[i]
        if byte == 0x22:
            i = _skip_string(data, i)
            continue
        if byte == open_byte:
            depth += 1
        elif byte == close_byte:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise StorageError("unterminated container in JSON input")


def tokenize_object(
    data: bytes, start: int, prefix: str = "", max_depth: int = 8
) -> tuple[list[TokenEntry], int]:
    """Tokenize one JSON object starting at ``start``.

    Returns the Level-1 entries (top-level fields plus nested record fields
    flattened into dotted paths; arrays as opaque spans) and the byte offset
    just past the object's closing brace.
    """
    entries: list[TokenEntry] = []
    position = _skip_whitespace(data, start)
    if position >= len(data) or data[position] != 0x7B:
        raise StorageError(f"expected JSON object at byte {position}")
    object_start = position
    position += 1
    while True:
        position = _skip_whitespace(data, position)
        if position >= len(data):
            raise StorageError("unterminated JSON object")
        if data[position] == 0x7D:
            position += 1
            break
        if data[position] == 0x2C:  # comma
            position += 1
            continue
        if data[position] != 0x22:
            raise StorageError(f"expected field name at byte {position}")
        name_end = _skip_string(data, position)
        name = data[position + 1:name_end - 1].decode("utf-8")
        position = _skip_whitespace(data, name_end)
        if position >= len(data) or data[position] != 0x3A:  # colon
            raise StorageError(f"expected ':' at byte {position}")
        position = _skip_whitespace(data, position + 1)
        value_start = position
        value_end, type_code = _skip_value(data, position)
        path = f"{prefix}{name}"
        entries.append(TokenEntry(path, value_start, value_end, type_code))
        if type_code == TYPE_OBJECT and max_depth > 1:
            nested, _ = tokenize_object(data, value_start, f"{path}.", max_depth - 1)
            entries.extend(nested)
        position = value_end
    # Record the overall object span as the first entry, mirroring Figure 4.
    entries.insert(0, TokenEntry(prefix.rstrip("."), object_start, position, TYPE_OBJECT))
    return entries, position


# ---------------------------------------------------------------------------
# JSON structural index
# ---------------------------------------------------------------------------


class JsonStructuralIndex:
    """Two-level structural index over a JSON dataset (one object per line or
    a whitespace-separated stream of objects)."""

    def __init__(
        self,
        object_spans: np.ndarray,
        fixed_schema: bool,
        shared_paths: tuple[str, ...] | None,
        spans: np.ndarray | None,
        types: np.ndarray | None,
        level0: list[dict[str, int]] | None,
        per_object_entries: list[list[TokenEntry]] | None,
    ):
        self.object_spans = object_spans
        self.fixed_schema = fixed_schema
        self.shared_paths = shared_paths
        self._shared_slots = (
            {path: slot for slot, path in enumerate(shared_paths)} if shared_paths else {}
        )
        self.spans = spans
        self.types = types
        self.level0 = level0
        self.per_object_entries = per_object_entries

    @property
    def num_objects(self) -> int:
        return len(self.object_spans)

    @property
    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the index."""
        total = int(self.object_spans.nbytes)
        if self.fixed_schema:
            assert self.spans is not None and self.types is not None
            total += int(self.spans.nbytes + self.types.nbytes)
            if self.shared_paths:
                total += sum(len(p) for p in self.shared_paths)
        else:
            assert self.per_object_entries is not None and self.level0 is not None
            for entries, mapping in zip(self.per_object_entries, self.level0):
                total += len(entries) * 24  # start, end, type per entry
                total += sum(len(path) + 8 for path in mapping)
        return total

    def object_span(self, index: int) -> tuple[int, int]:
        return int(self.object_spans[index, 0]), int(self.object_spans[index, 1])

    def paths(self) -> set[str]:
        """All field paths known to the index (excluding the root entries)."""
        if self.fixed_schema:
            return set(self.shared_paths or ())
        result: set[str] = set()
        assert self.level0 is not None
        for mapping in self.level0:
            result.update(mapping)
        result.discard("")
        return result

    def column_spans(
        self, path: str, positions: "np.ndarray | list[int] | slice | None" = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Vectorized span lookup for one field across many objects.

        Only available for fixed-schema indexes (where Level 0 has been
        dropped and the per-object spans live in dense arrays); returns
        ``(starts, ends, type_codes)`` with ``start == -1`` marking missing
        fields, or ``None`` when the index is not fixed-schema or the path is
        unknown.  A ``slice`` of positions returns views, no gather.
        """
        if not self.fixed_schema:
            return None
        slot = self._shared_slots.get(path)
        if slot is None:
            return None
        assert self.spans is not None and self.types is not None
        if positions is None:
            starts = self.spans[:, slot, 0]
            ends = self.spans[:, slot, 1]
            types = self.types[:, slot]
        else:
            if not isinstance(positions, slice):
                positions = np.asarray(positions, dtype=np.int64)
            starts = self.spans[positions, slot, 0]
            ends = self.spans[positions, slot, 1]
            types = self.types[positions, slot]
        return starts, ends, types

    def field_span(self, index: int, path: str) -> tuple[int, int, int] | None:
        """Return ``(start, end, type_code)`` of field ``path`` in object
        ``index``, or ``None`` when the object lacks the field."""
        if self.fixed_schema:
            slot = self._shared_slots.get(path)
            if slot is None:
                return None
            assert self.spans is not None and self.types is not None
            start = int(self.spans[index, slot, 0])
            end = int(self.spans[index, slot, 1])
            if start < 0:
                return None
            return start, end, int(self.types[index, slot])
        assert self.level0 is not None and self.per_object_entries is not None
        slot = self.level0[index].get(path)
        if slot is None:
            return None
        entry = self.per_object_entries[index][slot]
        return entry.start, entry.end, entry.type_code


def iter_object_starts(data: bytes) -> Iterator[int]:
    """Yield the byte offset of every top-level object in the buffer."""
    position = 0
    length = len(data)
    while True:
        position = _skip_whitespace(data, position)
        if position >= length:
            return
        if data[position] != 0x7B:
            raise StorageError(
                f"expected '{{' at byte {position}; the JSON input must be a "
                "stream of objects (one per line or whitespace separated)"
            )
        yield position
        position = _skip_container(data, position, 0x7B, 0x7D)


def build_json_index(data: bytes, max_depth: int = 8) -> JsonStructuralIndex:
    """Validate a JSON object stream and build its structural index.

    Mirrors the paper's first-access behaviour: the input is validated, a
    Level-1 index is populated per object, and if every object carries the
    same fields in the same order Level 0 is dropped in favour of a shared,
    deterministic field list.
    """
    object_spans: list[tuple[int, int]] = []
    all_entries: list[list[TokenEntry]] = []
    for start in iter_object_starts(data):
        entries, end = tokenize_object(data, start, max_depth=max_depth)
        object_spans.append((start, end))
        all_entries.append(entries)

    spans_array = np.asarray(object_spans, dtype=np.int64).reshape(len(object_spans), 2) \
        if object_spans else np.zeros((0, 2), dtype=np.int64)

    # Fixed-schema detection: identical ordered field paths in every object.
    field_sequences = {
        tuple(entry.path for entry in entries[1:] if entry.type_code != TYPE_OBJECT
              or "." not in entry.path)
        for entries in all_entries
    }
    ordered_paths = [
        tuple(entry.path for entry in entries[1:]) for entries in all_entries
    ]
    fixed = len(set(ordered_paths)) <= 1 and bool(all_entries)
    del field_sequences

    if fixed:
        shared_paths = ordered_paths[0] if ordered_paths else ()
        spans = np.full((len(all_entries), len(shared_paths), 2), -1, dtype=np.int64)
        types = np.zeros((len(all_entries), len(shared_paths)), dtype=np.int8)
        for obj_index, entries in enumerate(all_entries):
            for slot, entry in enumerate(entries[1:]):
                spans[obj_index, slot, 0] = entry.start
                spans[obj_index, slot, 1] = entry.end
                types[obj_index, slot] = entry.type_code
        return JsonStructuralIndex(
            object_spans=spans_array,
            fixed_schema=True,
            shared_paths=shared_paths,
            spans=spans,
            types=types,
            level0=None,
            per_object_entries=None,
        )

    level0: list[dict[str, int]] = []
    for entries in all_entries:
        mapping: dict[str, int] = {}
        for slot, entry in enumerate(entries):
            if slot == 0:
                continue
            mapping.setdefault(entry.path, slot)
        level0.append(mapping)
    return JsonStructuralIndex(
        object_spans=spans_array,
        fixed_schema=False,
        shared_paths=None,
        spans=None,
        types=None,
        level0=level0,
        per_object_entries=all_entries,
    )
