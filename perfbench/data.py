"""Seeded input data of the workloads, generated once per seed and
cached on disk.

Every generator is a pure function of ``(seed, scale)``, for any integer
seed: NumPy's seeds are derived from it with :func:`subseed`.  The engine host
reads the files, the load generator recomputes the same NumPy columns to
check answers.  Writing the files is the only slow part, so a finished
directory is marked complete and reused; generation never counts towards
``setup_s``.  Only the few most recent seed directories are kept, so a long
series of seeded runs does not fill the disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

from repro.workloads import tpch

#: Bump when a generator changes, so stale cached files are never reused
#: (the row counts below are part of the cache key already).
DATA_VERSION = 2

#: Seed directories kept per workload family (oldest are removed first).
KEEP_SEED_DIRS = 10

#: Row counts at ``scale`` 1.0.
SERVE_LINEITEMS = 200_000     # binary-column lineitem (orders: a quarter)
SERVE_JSON_LINEITEMS = 12_000  # lineitem prefix, also as a raw JSON file
SERVE_EVENTS = 8_000           # sparse JSON events
EVENTS_MISSING_KIND = 0.02     # share of events without the group key
REFRESH_JSON_ROWS = 4_000      # rows of each JSON file version
REFRESH_VERSIONS = 4           # pre-generated JSON file versions
REFRESH_CSV_ROWS = 6_000       # orders rows of the CSV dataset


def _rows(count: int, scale: float) -> int:
    return max(int(count * scale), 64)


def subseed(seed: int, stream: str) -> int:
    """A NumPy seed (``0 .. 2**32 - 1``, the only range ``RandomState``
    accepts) for one input stream of any integer ``seed``."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# ---------------------------------------------------------------------------
# Columns (pure functions of seed and scale)
# ---------------------------------------------------------------------------


def serve_tables(seed: int, scale: float) -> dict[str, dict[str, np.ndarray]]:
    """Columns of ``serve_analytics``: ``li`` / ``ord`` (binary columns),
    ``li_json`` (a lineitem prefix as raw JSON) and ``events``."""
    lineitems = _rows(SERVE_LINEITEMS, scale)
    tables = tpch.generate(scale=lineitems / tpch.LINEITEMS_PER_SCALE,
                           seed=subseed(seed, "lineitem"))
    json_rows = min(_rows(SERVE_JSON_LINEITEMS, scale), lineitems)
    return {
        "li": tables.lineitem,
        "ord": tables.orders,
        "li_json": {name: col[:json_rows] for name, col in tables.lineitem.items()},
        "events": _events(subseed(seed, "events"), _rows(SERVE_EVENTS, scale)),
    }


def _events(numpy_seed: int, count: int) -> dict[str, np.ndarray]:
    """Sparse events: ``kind`` is missing (NaN here, absent in the file) in
    about :data:`EVENTS_MISSING_KIND` of the objects."""
    rng = np.random.RandomState(numpy_seed)
    kind = rng.randint(0, 8, size=count).astype(np.float64)
    kind[rng.rand(count) < EVENTS_MISSING_KIND] = np.nan
    return {
        "id": np.arange(count, dtype=np.int64),
        "kind": kind,
        "amount": np.round(rng.uniform(0.0, 100.0, size=count), 2),
    }


def refresh_tables(seed: int, scale: float) -> dict[str, dict[str, np.ndarray]]:
    """Columns of ``raw_refresh``: ``v0``..``vN`` (lineitem JSON versions)
    and ``csv`` (orders)."""
    json_rows = _rows(REFRESH_JSON_ROWS, scale)
    out = {}
    for version in range(REFRESH_VERSIONS):
        tables = tpch.generate(
            scale=json_rows / tpch.LINEITEMS_PER_SCALE, seed=subseed(seed, f"v{version}")
        )
        out[f"v{version}"] = tables.lineitem
    csv_rows = _rows(REFRESH_CSV_ROWS, scale)
    out["csv"] = tpch.generate(
        scale=csv_rows / tpch.ORDERS_PER_SCALE, seed=subseed(seed, "orders")
    ).orders
    return out


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def _write_events(path: str, columns: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, kind, amount in zip(
            columns["id"].tolist(), columns["kind"].tolist(), columns["amount"].tolist()
        ):
            record = {"id": i, "amount": amount}
            if kind == kind:  # not NaN
                record["kind"] = int(kind)
            handle.write(json.dumps(record) + "\n")


def _write_serve(directory: str, tables: dict) -> dict[str, str]:
    files = {
        "li": os.path.join(directory, "li_columns"),
        "ord": os.path.join(directory, "ord_columns"),
        "li_json": os.path.join(directory, "lineitem.json"),
        "events": os.path.join(directory, "events.json"),
    }
    tpch.write_binary_columns(files["li"], tables["li"], tpch.LINEITEM_SCHEMA)
    tpch.write_binary_columns(files["ord"], tables["ord"], tpch.ORDERS_SCHEMA)
    tpch.write_json(files["li_json"], tables["li_json"])
    _write_events(files["events"], tables["events"])
    return files


def _write_refresh(directory: str, tables: dict) -> dict[str, str]:
    files = {}
    for name, columns in tables.items():
        if name == "csv":
            files[name] = tpch.write_csv(os.path.join(directory, "orders.csv"), columns)
        else:
            files[name] = tpch.write_json(
                os.path.join(directory, f"lineitem_{name}.json"), columns
            )
    return files


FAMILIES = {
    "serve": (serve_tables, _write_serve),
    "refresh": (refresh_tables, _write_refresh),
}


def materialize(work_dir: str, family: str, seed: int, scale: float):
    """Return ``(tables, files)`` for one seed, writing the files only when
    no complete copy is cached under ``work_dir``."""
    make_tables, write = FAMILIES[family]
    tables = make_tables(seed, scale)
    sizes = (DATA_VERSION, SERVE_LINEITEMS, SERVE_JSON_LINEITEMS, SERVE_EVENTS,
             EVENTS_MISSING_KIND, REFRESH_JSON_ROWS, REFRESH_VERSIONS, REFRESH_CSV_ROWS)
    key = hashlib.sha256(repr(sizes).encode()).hexdigest()[:10]
    root = os.path.join(work_dir, "data")
    directory = os.path.join(root, f"{family}-{key}-s{seed}-x{scale:g}")
    manifest = os.path.join(directory, "files.json")
    if not os.path.exists(manifest):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        names = {
            name: os.path.relpath(path, directory)
            for name, path in write(directory, tables).items()
        }
        with open(manifest + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(names, handle)
        os.replace(manifest + ".tmp", manifest)
        _prune(root, family, keep=directory)
    with open(manifest, encoding="utf-8") as handle:
        names = json.load(handle)
    os.utime(directory)
    return tables, {name: os.path.join(directory, rel) for name, rel in names.items()}


def _prune(root: str, family: str, keep: str) -> None:
    """Drop all but the :data:`KEEP_SEED_DIRS` most recently used directories."""
    entries = [
        os.path.join(root, name)
        for name in os.listdir(root)
        if name.startswith(family + "-")
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for path in entries[KEEP_SEED_DIRS:]:
        if path != keep:
            shutil.rmtree(path, ignore_errors=True)
