"""Query mixes of the workloads and their reference answers.

Reference answers are computed with NumPy over the generated columns —
independently of the engine under test — and compared with
:func:`same_rows`: integers exactly, floats with ``rel_tol=1e-9`` (the
engine may sum in another order), rows sorted first unless the query has an
``ORDER BY``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

REL_TOL = 1e-9


@dataclass(frozen=True)
class QueryClass:
    """One parameterized query shape of a serving mix."""

    name: str
    share: float
    text: str
    #: ``make_args(tables)`` -> the argument tuples of this class.
    make_args: Callable[[dict], list[tuple]]
    #: ``reference(tables, args)`` -> list of row tuples.
    reference: Callable[[dict, tuple], list[tuple]]
    ordered: bool = False


@dataclass(frozen=True)
class Instance:
    """One concrete query: a text plus bound arguments (``args`` is empty
    for literal texts)."""

    key: str
    cls: str
    text: str
    args: tuple
    ordered: bool
    #: Whether the answer depends on the JSON file version (``raw_refresh``).
    versioned: bool = False
    #: ``raw_refresh`` texts: (shape, a, b, c, op, literal) for the reference.
    spec: tuple = ()


# ---------------------------------------------------------------------------
# serve_analytics
# ---------------------------------------------------------------------------


def _ref_filtered_agg(tables, args):
    li = tables["li"]
    mask = (li["l_quantity"] < args[0]) & (li["l_discount"] >= args[1])
    return [(int(mask.sum()), float(li["l_extendedprice"][mask].sum()))]


def _ref_json_groupby(tables, args):
    li = tables["li_json"]
    mask = li["l_orderkey"] < args[0]
    keys = li["l_linenumber"][mask]
    qty = li["l_quantity"][mask]
    return [
        (int(k), float(qty[keys == k].sum()), int((keys == k).sum()))
        for k in np.unique(keys)
    ]


def _ref_join(tables, args):
    li, orders = tables["li"], tables["ord"]
    size = int(orders["o_orderkey"].max()) + 1
    price = np.zeros(size)
    priority = np.zeros(size, dtype=np.int64)
    price[orders["o_orderkey"]] = orders["o_totalprice"]
    priority[orders["o_orderkey"]] = orders["o_orderpriority"]
    keys = li["l_orderkey"]
    mask = (priority[keys] == args[0]) & (li["l_quantity"] > args[1])
    return [(int(mask.sum()), float(price[keys][mask].sum()))]


def _ref_topk(tables, args):
    li = tables["li"]
    mask = li["l_discount"] < args[0]
    price, key = li["l_extendedprice"][mask], li["l_orderkey"][mask]
    order = np.lexsort((key, -price))[:10]
    return [(float(price[i]), int(key[i])) for i in order]


def _ref_null_key_groupby(tables, args):
    ev = tables["events"]
    mask = ev["amount"] > args[0]
    kind, amount = ev["kind"][mask], ev["amount"][mask]
    missing = np.isnan(kind)
    rows = [
        (int(k), int((kind == k).sum()), float(amount[kind == k].sum()))
        for k in np.unique(kind[~missing])
    ]
    if missing.any():
        rows.append((None, int(missing.sum()), float(amount[missing].sum())))
    return rows


def _grid(*axes):
    """Every combination of the given argument values, in order."""
    combos = [()]
    for axis in axes:
        combos = [c + (v,) for c in combos for v in axis]
    return lambda tables: combos


def _orderkey_bounds(*shares: float):
    """``l_orderkey < X`` bounds selecting the given shares of the orders."""

    def make(tables: dict) -> list[tuple]:
        keys = int(tables["ord"]["o_orderkey"].max())
        return [(int(keys * share) + 1,) for share in shares]

    return make


ANALYTICS = (
    QueryClass(
        "filtered_agg", 0.22,
        "SELECT COUNT(*), SUM(l_extendedprice) FROM li "
        "WHERE l_quantity < ? AND l_discount >= ?",
        _grid((10.0, 20.0, 30.0, 40.0), (0.0, 0.02, 0.04, 0.06, 0.08)),
        _ref_filtered_agg,
    ),
    QueryClass(
        "json_groupby", 0.25,
        "SELECT l_linenumber, SUM(l_quantity), COUNT(*) FROM li_json "
        "WHERE l_orderkey < ? GROUP BY l_linenumber",
        _orderkey_bounds(0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        _ref_json_groupby,
    ),
    QueryClass(
        "binary_join", 0.25,
        "SELECT COUNT(*), SUM(o_totalprice) FROM li JOIN ord "
        "ON l_orderkey = o_orderkey WHERE o_orderpriority = ? AND l_quantity > ?",
        _grid((1, 2, 3, 4, 5), (10.0, 25.0, 40.0)),
        _ref_join,
    ),
    QueryClass(
        "top_k", 0.22,
        "SELECT l_extendedprice, l_orderkey FROM li WHERE l_discount < ? "
        "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 10",
        _grid((0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1)),
        _ref_topk,
        ordered=True,
    ),
    QueryClass(
        "null_key_groupby", 0.06,
        "SELECT kind, COUNT(*), SUM(amount) FROM events WHERE amount > ? GROUP BY kind",
        _grid((0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0)),
        _ref_null_key_groupby,
    ),
)


def serve_instances(tables: dict) -> tuple[list[Instance], list[float]]:
    """The instance pool of ``ANALYTICS`` and each instance's weight (class
    share spread evenly over the class's instances).  Argument grids are
    fixed, so every seed asks for the same amount of work."""
    instances, weights = [], []
    for cls in ANALYTICS:
        args_list = cls.make_args(tables)
        for i, args in enumerate(args_list):
            instances.append(
                Instance(f"{cls.name}#{i}", cls.name, cls.text, args, cls.ordered)
            )
            weights.append(cls.share / len(args_list))
    return instances, weights


def serve_reference(tables: dict, instance: Instance) -> list[tuple]:
    cls = next(c for c in ANALYTICS if c.name == instance.cls)
    return cls.reference(tables, instance.args)


# ---------------------------------------------------------------------------
# raw_refresh: ad hoc literal texts over random field subsets
# ---------------------------------------------------------------------------

#: (dataset, numeric fields, group field) of the two raw datasets.
REFRESH_DATASETS = {
    "lj": (
        ("l_quantity", "l_extendedprice", "l_discount", "l_tax",
         "l_orderkey", "l_partkey", "l_suppkey"),
        "l_linenumber",
    ),
    "oc": (("o_totalprice", "o_custkey", "o_orderkey"), "o_orderpriority"),
}

#: Ad hoc texts per run; clients draw from this pool, so some texts repeat
#: (prepared-cache hits) and most do not.
REFRESH_POOL = 160

#: Seed of the texts' shapes, fields and literal quantiles.  It is the same
#: for every run seed, so every seed asks for the same amount of work (as the
#: fixed argument grids of ``serve_analytics`` do); the run seed picks the
#: data, and with it each literal's value.
REFRESH_TEXT_SEED = 5


def _literal(values: np.ndarray, quantile: float):
    """The value at ``quantile`` (in [0.1, 0.9]: never an empty result)."""
    value = float(np.quantile(values, quantile))
    if values.dtype.kind in "iu":
        return int(value)
    return round(value, 2)


def refresh_instances(tables: dict) -> list[Instance]:
    rng = random.Random(REFRESH_TEXT_SEED)
    sample = {"lj": tables["v0"], "oc": tables["csv"]}
    out = []
    for i in range(REFRESH_POOL):
        # 3/4 of the texts read the JSON file: each dataset's latencies form
        # their own mode, and a 50/50 split would put p50 between the two.
        dataset = "oc" if i % 4 == 3 else "lj"
        fields, group = REFRESH_DATASETS[dataset]
        a, b, c = rng.sample(fields, 3)
        lit = _literal(sample[dataset][c], rng.uniform(0.1, 0.9))
        shape = rng.randrange(3)
        op = ("<", ">", ">=")[shape]
        if shape == 0:
            text = (f"SELECT SUM({a}), MAX({b}), COUNT(*) FROM {dataset} "
                    f"WHERE {c} < {lit}")
        elif shape == 1:
            text = (f"SELECT {group}, SUM({a}), COUNT(*) FROM {dataset} "
                    f"WHERE {c} > {lit} GROUP BY {group}")
        else:
            text = f"SELECT MIN({a}), AVG({b}) FROM {dataset} WHERE {c} >= {lit}"
        out.append(Instance(
            f"adhoc#{i}", dataset, text, (), False,
            versioned=dataset == "lj", spec=(shape, a, b, c, op, lit),
        ))
    return out


_OPS = {"<": np.less, ">": np.greater, ">=": np.greater_equal}


def refresh_reference(columns: dict[str, np.ndarray], instance: Instance) -> list[tuple]:
    """Answer of one ad hoc text over the given columns (NumPy)."""
    shape, a, b, c, op, lit = instance.spec
    mask = _OPS[op](columns[c], lit)
    va = columns[a][mask]
    if shape == 0:
        return [(va.sum().item(), columns[b][mask].max().item(), int(mask.sum()))]
    if shape == 1:
        keys = columns[REFRESH_DATASETS[instance.cls][1]][mask]
        return [
            (int(k), va[keys == k].sum().item(), int((keys == k).sum()))
            for k in np.unique(keys)
        ]
    return [(va.min().item(), float(columns[b][mask].mean()))]


# ---------------------------------------------------------------------------
# Dealing
# ---------------------------------------------------------------------------


def deck(weights, size: int = 400) -> list[int]:
    """Instance indexes with counts proportional to ``weights``.  Clients
    deal from shuffled copies, so every run gets (nearly) the target mix
    instead of a random draw's share of the expensive classes."""
    total = sum(weights)
    return [i for i, w in enumerate(weights) for _ in range(max(1, round(size * w / total)))]


def dealt(cards: list[int], rng: random.Random):
    """Endless picks: the deck reshuffled on every pass."""
    cards = list(cards)
    while True:
        rng.shuffle(cards)
        yield from cards


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _cell_equal(got, expected) -> bool:
    if got is None or expected is None:
        return got is None and expected is None
    if isinstance(got, bool) or isinstance(expected, bool):
        return got == expected
    if isinstance(got, int) and isinstance(expected, int):
        return got == expected
    if isinstance(got, (int, float)) and isinstance(expected, (int, float)):
        return math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return got == expected


def _sort_key(row):
    return tuple((value is None, 0 if value is None else value) for value in row)


def same_rows(got: list, expected: list, ordered: bool) -> bool:
    """Whether ``got`` answers the query whose reference is ``expected``."""
    if len(got) != len(expected):
        return False
    if any(len(row) != len(expected[0]) for row in got[:1]):
        return False
    if not ordered:
        got = sorted((tuple(row) for row in got), key=_sort_key)
        expected = sorted((tuple(row) for row in expected), key=_sort_key)
    for got_row, expected_row in zip(got, expected):
        if len(got_row) != len(expected_row):
            return False
        if not all(_cell_equal(g, e) for g, e in zip(got_row, expected_row)):
            return False
    return True
