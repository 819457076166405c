"""Radix hash join and radix grouping kernels.

The paper keeps the heavy join/grouping machinery outside the generated code:
"Proteus uses hash-based algorithms for the join and grouping operators,
namely variations of the radix hash join algorithm ... wrapped in a C++
function" (§5.1).  The reproduction mirrors that split: the per-query
generated code calls these library kernels, which partition their inputs by a
radix of the key hash and match within each partition using vectorized
sort/search operations.

The materialized build side (:class:`RadixTable`) is exactly the structure the
caching manager reuses for partial plan matches (§6: the hash table built for
``A ⋈ B`` can serve ``A ⋈ C`` when the join key is the same).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared scalar operator tables: arithmetic carries NumPy-aligned
# zero-divisor semantics (plain operators would raise ZeroDivisionError on
# Python scalars where NumPy buffers yield inf/NaN), and sharing both maps
# keeps every tier's operator semantics in one place.
from repro.core.expressions import (
    ARITHMETIC_FUNCS as _ARITHMETIC_FUNCS,
    COMPARISON_FUNCS as _COMPARISON_FUNCS,
)
# is_missing is the canonical scalar definition of "missing" (None / NaN),
# re-exported here for the kernels' callers.
from repro.core.types import is_missing  # noqa: F401
from repro.errors import ExecutionError, VectorizationError

DEFAULT_RADIX_BITS = 4


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def reject_missing_keys(keys: np.ndarray, operation: str) -> None:
    """The columnar kernels cannot key on missing values: np.unique/argsort
    cannot sort ``None`` and a NaN key would surface as ``nan`` where the
    tuple-at-a-time interpreter produces ``None``.  Raising here makes every
    columnar tier (generated code and batch interpreter alike) fall back to
    the Volcano interpreter for such data."""
    if missing_mask(keys) is not None:
        raise VectorizationError(
            f"{operation} on keys containing missing values is served by the "
            "Volcano interpreter"
        )


def partition_assignment(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Assign each key to a partition based on a radix of its hash."""
    if keys.dtype == object:
        hashes = np.fromiter(
            (hash(value) for value in keys), dtype=np.int64, count=len(keys)
        )
        return (hashes % num_partitions + num_partitions) % num_partitions
    if keys.dtype.kind == "f":
        integral = keys.astype(np.int64, copy=False) if np.all(np.isfinite(keys)) else \
            np.nan_to_num(keys).astype(np.int64)
        return (integral % num_partitions + num_partitions) % num_partitions
    integral = keys.astype(np.int64, copy=False)
    return (integral % num_partitions + num_partitions) % num_partitions


# ---------------------------------------------------------------------------
# Radix hash join
# ---------------------------------------------------------------------------


@dataclass
class RadixPartition:
    """One build-side partition: keys sorted, plus their original positions."""

    sorted_keys: np.ndarray
    original_positions: np.ndarray


@dataclass
class RadixTable:
    """A fully materialized (partitioned, clustered) join build side."""

    partitions: list[RadixPartition]
    num_partitions: int
    build_size: int

    @property
    def size_bytes(self) -> int:
        total = 0
        for partition in self.partitions:
            if partition.sorted_keys.dtype == object:
                total += sum(len(str(v)) + 48 for v in partition.sorted_keys)
            else:
                total += int(partition.sorted_keys.nbytes)
            total += int(partition.original_positions.nbytes)
        return total


def cluster_partition(keys: np.ndarray, positions: np.ndarray) -> RadixPartition:
    """Sort-cluster one build partition (the per-partition unit of work that
    a parallel build fans out across workers)."""
    partition_keys = keys[positions]
    try:
        order = np.argsort(partition_keys, kind="stable")
    except TypeError as exc:
        raise VectorizationError(
            f"joining on mixed-type keys is served by the Volcano "
            f"interpreter ({exc})"
        ) from exc
    return RadixPartition(
        sorted_keys=partition_keys[order],
        original_positions=positions[order],
    )


def build_radix_table(keys: np.ndarray, bits: int = DEFAULT_RADIX_BITS) -> RadixTable:
    """Materialize the build side of a radix hash join."""
    keys = np.asarray(keys)
    reject_missing_keys(keys, "join")
    num_partitions = 1 << bits
    assignment = partition_assignment(keys, num_partitions)
    partitions = [
        cluster_partition(keys, np.nonzero(assignment == partition_id)[0])
        for partition_id in range(num_partitions)
    ]
    return RadixTable(partitions=partitions, num_partitions=num_partitions,
                      build_size=len(keys))


def probe_radix_table(
    table: RadixTable, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probe a radix table; returns aligned (build_positions, probe_positions)."""
    probe_keys = np.asarray(probe_keys)
    reject_missing_keys(probe_keys, "join")
    assignment = partition_assignment(probe_keys, table.num_partitions)
    build_chunks: list[np.ndarray] = []
    probe_chunks: list[np.ndarray] = []
    for partition_id, partition in enumerate(table.partitions):
        if len(partition.sorted_keys) == 0:
            continue
        probe_positions = np.nonzero(assignment == partition_id)[0]
        if len(probe_positions) == 0:
            continue
        keys = probe_keys[probe_positions]
        try:
            lo = np.searchsorted(partition.sorted_keys, keys, side="left")
            hi = np.searchsorted(partition.sorted_keys, keys, side="right")
        except TypeError as exc:
            raise VectorizationError(
                f"joining on mixed-type keys is served by the Volcano "
                f"interpreter ({exc})"
            ) from exc
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            continue
        probe_expanded = np.repeat(probe_positions, counts)
        cumulative = np.cumsum(counts)
        within = np.arange(total) - np.repeat(cumulative - counts, counts)
        build_sorted_positions = np.repeat(lo, counts) + within
        build_chunks.append(partition.original_positions[build_sorted_positions])
        probe_chunks.append(probe_expanded)
    if not build_chunks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(build_chunks), np.concatenate(probe_chunks)


def radix_join(
    left_keys: np.ndarray, right_keys: np.ndarray, bits: int = DEFAULT_RADIX_BITS
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join two key arrays; returns aligned (left_positions, right_positions)."""
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if left_keys.dtype.kind in "if" and right_keys.dtype.kind in "if" and \
            left_keys.dtype != right_keys.dtype:
        left_keys = left_keys.astype(np.float64)
        right_keys = right_keys.astype(np.float64)
    table = build_radix_table(left_keys, bits=bits)
    left_positions, right_positions = probe_radix_table(table, right_keys)
    return left_positions, right_positions


# ---------------------------------------------------------------------------
# Radix grouping
# ---------------------------------------------------------------------------


@dataclass
class GroupingResult:
    """Output of the radix grouping kernel."""

    group_ids: np.ndarray
    num_groups: int
    key_arrays: list[np.ndarray]


def radix_group(key_arrays: list[np.ndarray]) -> GroupingResult:
    """Assign each input row to a group identified by its key combination."""
    if not key_arrays:
        raise ExecutionError("grouping requires at least one key")
    length = len(key_arrays[0])
    for keys in key_arrays:
        if len(keys) != length:
            raise ExecutionError("group key arrays must have equal length")
        reject_missing_keys(np.asarray(keys), "grouping")
    combined = np.zeros(length, dtype=np.int64)
    factorized: list[tuple[np.ndarray, np.ndarray]] = []
    capacity = 1  # exact Python int: the mixed-radix code space
    for keys in key_arrays:
        try:
            uniques, inverse = np.unique(np.asarray(keys), return_inverse=True)
        except TypeError as exc:
            raise VectorizationError(
                f"grouping on mixed-type keys is served by the Volcano "
                f"interpreter ({exc})"
            ) from exc
        factorized.append((uniques, inverse))
        capacity *= max(len(uniques), 1)
        if capacity >= 2**63:
            # The combined group code would wrap int64, silently merging
            # distinct key combinations; fall back.
            raise VectorizationError(
                "grouping key-combination space exceeds int64; served by "
                "the Volcano interpreter"
            )
        combined = combined * max(len(uniques), 1) + inverse
    unique_codes, first_positions, group_ids = np.unique(
        combined, return_index=True, return_inverse=True
    )
    representative_keys = [
        np.asarray(keys)[first_positions] for keys in key_arrays
    ]
    return GroupingResult(
        group_ids=group_ids.astype(np.int64),
        num_groups=len(unique_codes),
        key_arrays=representative_keys,
    )




def missing_mask(values: np.ndarray) -> np.ndarray | None:
    """Mask of missing entries in a column buffer (``None`` in object buffers,
    NaN in float buffers), or ``None`` when nothing is missing.  This is the
    single definition of "missing" shared by the aggregate kernels and the
    vectorized executor."""
    if values.dtype == object:
        mask = np.fromiter(
            (is_missing(v) for v in values), dtype=bool, count=len(values)
        )
        return mask if mask.any() else None
    if values.dtype.kind == "f":
        mask = np.isnan(values)
        return mask if mask.any() else None
    return None


def _drop_missing(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Strip missing inputs before reducing, matching the tuple-at-a-time
    accumulators which skip nulls.  Returns (kept values, keep mask or
    ``None`` when nothing was dropped)."""
    mask = missing_mask(values)
    if mask is None:
        return values, None
    keep = ~mask
    return values[keep], keep


def bool_mask(values) -> np.ndarray:
    """Coerce a predicate result to a boolean mask.  Missing inputs are
    false, matching ``bool(None)`` in the tuple-at-a-time interpreter.  Used
    by both the generated code (``rt.mask``) and the vectorized executor so
    the tiers cannot drift apart."""
    array = np.asarray(values)
    if array.ndim == 0:
        value = array.item()
        return np.asarray(False if is_missing(value) else bool(value))
    if array.dtype == object:
        return np.fromiter(
            (False if is_missing(v) else bool(v) for v in array),
            dtype=bool,
            count=len(array),
        )
    if array.dtype.kind == "f":
        return array.astype(bool) & ~np.isnan(array)
    return array.astype(bool, copy=False)




def null_safe_arith(op: str, left, right):
    """Vectorized arithmetic where a missing (``None``) operand yields
    ``None``, matching the tuple-at-a-time interpreter.  Numeric buffers take
    the plain NumPy operator (NaN already propagates there); object buffers —
    which is where ``None`` can appear, e.g. all-missing group extrema — go
    elementwise.  Integer operations that could wrap int64 take the exact
    Python-int path instead (silent wraparound would diverge from the
    tuple-at-a-time interpreter's arbitrary-precision ints)."""
    combine = _ARITHMETIC_FUNCS[op]
    left_arr = np.asarray(left)
    right_arr = np.asarray(right)
    if left_arr.dtype == object or right_arr.dtype == object:
        elementwise = np.frompyfunc(
            lambda a, b: None if a is None or b is None else combine(a, b), 2, 1
        )
        return elementwise(left_arr, right_arr)
    if (
        op in ("+", "-", "*")
        and left_arr.dtype.kind in "iu"
        and right_arr.dtype.kind in "iu"
        and _int_overflow_possible(op, left_arr, right_arr)
    ):
        elementwise = np.frompyfunc(lambda a, b: combine(int(a), int(b)), 2, 1)
        return elementwise(left_arr, right_arr)
    return combine(left, right)


def _int_bound(array: np.ndarray) -> int:
    """Largest absolute value of an integer buffer, computed exactly."""
    if array.size == 0:
        return 0
    return max(abs(int(array.min())), abs(int(array.max())))


def _int_sum_may_overflow(values: np.ndarray) -> bool:
    """Conservative check: could summing this integer buffer wrap int64?"""
    return _int_bound(values) * max(len(values), 1) >= 2**63


def _int_overflow_possible(op: str, left: np.ndarray, right: np.ndarray) -> bool:
    left_bound = _int_bound(left)
    right_bound = _int_bound(right)
    if op == "*":
        return left_bound * right_bound >= 2**63
    return left_bound + right_bound >= 2**63


def null_safe_neg(value):
    """Vectorized unary minus: ``None`` stays ``None`` and bool buffers
    negate through int (``-True == -1``), as in the tuple-at-a-time
    interpreter."""
    array = np.asarray(value)
    if array.dtype == object:
        return np.frompyfunc(lambda v: None if v is None else -v, 1, 1)(array)
    if array.dtype.kind == "b":
        return -(array.astype(np.int64))
    return -array


def null_safe_compare(op: str, left, right) -> np.ndarray:
    """Vectorized comparison where any missing operand yields false, as in
    the tuple-at-a-time interpreter.  Object buffers (which can hold ``None``,
    e.g. all-missing aggregate results) go elementwise; numeric buffers take
    the plain NumPy operator, where NaN already compares false for every
    operator but ``!=`` (masked explicitly)."""
    compare = _COMPARISON_FUNCS[op]
    left_arr = np.asarray(left)
    right_arr = np.asarray(right)
    if left_arr.dtype == object or right_arr.dtype == object:
        missing = is_missing
        elementwise = np.frompyfunc(
            lambda a, b: False if missing(a) or missing(b) else compare(a, b), 2, 1
        )
        # frompyfunc returns a bare scalar for 0-d inputs; normalize.
        return np.asarray(elementwise(left_arr, right_arr), dtype=bool)
    result = np.asarray(compare(left_arr, right_arr), dtype=bool)
    if op == "!=":
        for side in (left_arr, right_arr):
            if side.dtype.kind == "f":
                result = result & ~np.isnan(side)
    return result




def average(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group averages from per-group sums and non-missing counts; groups
    without input average to NaN."""
    counts = np.asarray(counts)
    if sums.dtype == object:
        return np.asarray([
            total / count if count else float("nan")
            for total, count in zip(sums.tolist(), counts.tolist())
        ])
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def group_aggregate(
    func: str,
    group_ids: np.ndarray,
    num_groups: int,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Compute one aggregate per group (missing inputs are skipped)."""
    if func == "count" and values is None:
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)
    if values is None:
        raise ExecutionError(f"aggregate {func!r} requires input values")
    values = np.asarray(values)
    values, keep = _drop_missing(values)
    if keep is not None:
        group_ids = group_ids[keep]
    if func == "count":
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)
    if func in ("sum", "avg"):
        if values.dtype == object or (
            values.dtype.kind in "iu" and _int_sum_may_overflow(values)
        ):
            # Exact Python-int accumulation: big-int object buffers, and
            # integer buffers whose total could wrap int64.
            totals = [0] * num_groups
            for group_id, value in zip(group_ids.tolist(), values.tolist()):
                totals[group_id] += value
            sums = np.empty(num_groups, dtype=object)
            sums[:] = totals
        elif values.dtype.kind in "iub":
            # Integer sums stay integers (float64 weights would round above
            # 2**53), matching the tuple-at-a-time accumulators.
            sums = np.zeros(num_groups, dtype=np.int64)
            np.add.at(sums, group_ids, values)
        else:
            sums = np.bincount(group_ids, weights=values.astype(np.float64),
                               minlength=num_groups)
        if func == "sum":
            return sums
        return average(sums, np.bincount(group_ids, minlength=num_groups))
    if func in ("max", "min"):
        if values.dtype == object or values.dtype.kind in "US":
            pick = max if func == "max" else min
            boxed = np.full(num_groups, None, dtype=object)
            for group_id, value in zip(group_ids.tolist(), values.tolist()):
                current = boxed[group_id]
                boxed[group_id] = value if current is None else pick(current, value)
            return boxed
        reducer = np.maximum if func == "max" else np.minimum
        if values.dtype.kind in "iu":
            # Accumulate in the native integer dtype: routing int64 extrema
            # through float64 would round values above 2**53.
            info = np.iinfo(values.dtype)
            fill = info.min if func == "max" else info.max
            out = np.full(num_groups, fill, dtype=values.dtype)
            reducer.at(out, group_ids, values)
        elif values.dtype.kind == "b":
            fill = func == "min"
            out = np.full(num_groups, fill, dtype=np.bool_)
            reducer.at(out, group_ids, values)
        else:
            fill = -np.inf if func == "max" else np.inf
            out = np.full(num_groups, fill, dtype=np.float64)
            reducer.at(out, group_ids, values.astype(np.float64))
        counts = np.bincount(group_ids, minlength=num_groups)
        if np.any(counts == 0):
            # Groups with no non-missing input have no extremum (the
            # tuple-at-a-time accumulators report None for them).
            boxed = out.astype(object)
            boxed[counts == 0] = None
            return boxed
        return out
    if func == "and":
        out = np.ones(num_groups, dtype=bool)
        np.logical_and.at(out, group_ids, values.astype(bool))
        return out
    if func == "or":
        out = np.zeros(num_groups, dtype=bool)
        np.logical_or.at(out, group_ids, values.astype(bool))
        return out
    raise ExecutionError(f"unknown aggregate {func!r}")


def scalar_aggregate(func: str, values: np.ndarray | None, count: int) -> float | int | bool:
    """Compute a global (ungrouped) aggregate (missing inputs are skipped)."""
    if func == "count" and values is None:
        return int(count)
    if values is None:
        raise ExecutionError(f"aggregate {func!r} requires input values")
    values = np.asarray(values)
    values, _ = _drop_missing(values)
    if func == "count":
        return int(len(values))
    if len(values) == 0:
        # Matches the accumulators of the interpreted tiers: no non-missing
        # input means there is no extremum (None), an empty sum is integer 0.
        return {"sum": 0, "avg": float("nan"), "max": None,
                "min": None, "and": True, "or": False}[func]
    if func == "sum":
        if values.dtype.kind in "iu" and _int_sum_may_overflow(values):
            result = sum(values.tolist())  # exact Python-int accumulation
        else:
            result = values.sum()
    elif func == "avg":
        result = values.mean()
    elif func == "max":
        result = values.max()
    elif func == "min":
        result = values.min()
    elif func == "and":
        result = bool(np.all(values))
    elif func == "or":
        result = bool(np.any(values))
    else:
        raise ExecutionError(f"unknown aggregate {func!r}")
    if isinstance(result, np.generic):
        return result.item()
    return result
