"""Declarative tier-capability table and verdict computation.

One table — :data:`OPERATOR_CAPABILITIES` — declares, per execution tier and
per physical operator class, whether the tier covers the operator and under
which conditions it declines.  :func:`tier_verdicts` folds the table, the
root-shape rules, the expression-support rules and the engine configuration
into one :class:`TierVerdict` per tier in cascade order; the first serving
verdict is the tier the engine's cascade will select.

The decline reasons deliberately reuse the executors' own wording (the
strings ``CodegenError`` / ``VectorizationError`` carried before this module
existed), so ``explain()`` output stays familiar; each now also carries a
machine-readable ``TIER0xx`` code.

``tools/tier_lint.py`` enforces the other direction of the contract: every
``Phys*`` operator class must either be handled by an executor module or have
an explicit entry here — a new operator cannot silently fall through a tier.
"""

from __future__ import annotations

from typing import Callable

from repro.core.codegen.expr_gen import supported_by_codegen
from repro.core.expressions import contains_aggregate, to_string
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
    expressions_of,
    unwrap_sort,
)
from repro.core.analysis.model import (
    CASCADE_TIERS,
    TIER_CODEGEN,
    TIER_DISABLED,
    TIER_EXPRESSION,
    TIER_GROUP_COLUMN,
    TIER_OUTER_JOIN,
    TIER_OUTER_UNNEST_PREDICATE,
    TIER_PLAN_SHAPE,
    TIER_VECTORIZED,
    TIER_VOLCANO,
    TierVerdict,
)

#: A verdict fragment: ``None`` when the operator is covered, otherwise
#: ``(diagnostic code, human-readable reason)``.
Decline = tuple[str, str] | None

#: A per-operator condition: receives the node and the set of bindings that
#: are backed by a scan (as opposed to introduced by an unnest).
Check = Callable[[PhysicalPlan, frozenset[str]], Decline]


def _scan_bindings(plan: PhysicalPlan) -> frozenset[str]:
    return frozenset(
        node.binding for node in plan.walk() if isinstance(node, PhysScan)
    )


# -- per-operator conditions --------------------------------------------------


def _codegen_unnest(node: PhysicalPlan, scans: frozenset[str]) -> Decline:
    assert isinstance(node, PhysUnnest)
    if node.outer:
        return (
            TIER_PLAN_SHAPE,
            "outer unnest is served by the batch-native unnest of the "
            "vectorized tier",
        )
    if node.binding not in scans:
        # A nested-in-nested unnest: the parent binding is itself an unnest
        # variable, so the generator has no OID buffer to drive the plug-in's
        # offset-vector API.  The vectorized tier serves it through the
        # column-backed path.
        return (
            TIER_PLAN_SHAPE,
            f"no OID buffer for binding {node.binding!r}; the vectorized "
            "tier flattens the materialized collection column",
        )
    return None


def _batch_unnest(node: PhysicalPlan, scans: frozenset[str]) -> Decline:
    assert isinstance(node, PhysUnnest)
    if node.outer and node.predicate is not None:
        return (
            TIER_OUTER_UNNEST_PREDICATE,
            "outer unnest with an element predicate is served by the "
            "Volcano interpreter",
        )
    return None


def _no_outer_join(node: PhysicalPlan, scans: frozenset[str]) -> Decline:
    assert isinstance(node, (PhysHashJoin, PhysNestedLoopJoin))
    if node.outer:
        return (TIER_OUTER_JOIN, "outer join is served by the Volcano interpreter")
    return None


def _nest_columns_decline(node: PhysNest, volcano_wording: bool) -> Decline:
    """A ``GROUP BY`` output column must be a group key or contain an
    aggregate; anything else only the Volcano interpreter serves."""
    group_key_fingerprints = {
        expression.fingerprint() for expression in node.group_by
    }
    for column in node.columns:
        if column.expression.fingerprint() in group_key_fingerprints:
            continue
        if not contains_aggregate(column.expression):
            suffix = "; served by the Volcano interpreter" if volcano_wording else ""
            return (
                TIER_GROUP_COLUMN,
                f"group-by output column {column.name!r} is neither a group "
                f"key nor an aggregate{suffix}",
            )
    return None


def _codegen_nest(node: PhysicalPlan, scans: frozenset[str]) -> Decline:
    assert isinstance(node, PhysNest)
    return _nest_columns_decline(node, volcano_wording=False)


def _batch_nest(node: PhysicalPlan, scans: frozenset[str]) -> Decline:
    assert isinstance(node, PhysNest)
    return _nest_columns_decline(node, volcano_wording=True)


#: The capability table: tier -> operator class -> coverage condition.
#:
#: ``None`` means unconditionally covered.  Every ``Phys*`` class must appear
#: in every tier's row — ``tools/tier_lint.py`` fails the build otherwise.
#: ``PhysSort`` is covered everywhere because a root ``ORDER BY`` / ``LIMIT``
#: runs in the engine's columnar sort epilogue (or the tier's own top-K /
#: merge path), never inside the tier's operator interpreter; ``PhysReduce``
#: and ``PhysNest`` conditions apply at the plan root — the planner never
#: nests them deeper.
OPERATOR_CAPABILITIES: dict[str, dict[type, Check | None]] = {
    TIER_CODEGEN: {
        PhysScan: None,
        PhysSelect: None,
        PhysUnnest: _codegen_unnest,
        PhysHashJoin: _no_outer_join,
        PhysNestedLoopJoin: _no_outer_join,
        PhysReduce: None,
        PhysNest: _codegen_nest,
        PhysSort: None,
    },
    TIER_VECTORIZED: {
        PhysScan: None,
        PhysSelect: None,
        PhysUnnest: _batch_unnest,
        PhysHashJoin: _no_outer_join,
        PhysNestedLoopJoin: _no_outer_join,
        PhysReduce: None,
        PhysNest: _batch_nest,
        PhysSort: None,
    },
    # The Volcano interpreter is the total fallback: it covers every operator
    # unconditionally (PhysSort through the engine's sort epilogue).
    TIER_VOLCANO: {
        PhysScan: None,
        PhysSelect: None,
        PhysUnnest: None,
        PhysHashJoin: None,
        PhysNestedLoopJoin: None,
        PhysReduce: None,
        PhysNest: None,
        PhysSort: None,
    },
}

#: Tiers whose operator interpreters only accept Reduce / Nest plan roots.
_ROOTED_TIERS = frozenset({TIER_CODEGEN, TIER_VECTORIZED})


def plan_verdict(tier: str, plan: PhysicalPlan) -> Decline:
    """The capability table's verdict for one tier over one plan.

    Configuration-independent: only the plan shape and its expressions are
    consulted.  Returns ``None`` when the tier covers the plan, otherwise
    ``(code, reason)`` for the first declining condition in plan order.
    """
    table = OPERATOR_CAPABILITIES[tier]
    root = unwrap_sort(plan)
    if tier in _ROOTED_TIERS and not isinstance(root, (PhysReduce, PhysNest)):
        if tier == TIER_CODEGEN:
            reason = f"plan root must be Reduce or Nest, got {root.describe()}"
        else:
            reason = (
                f"plan root {root.describe()} is served by the Volcano "
                "interpreter"
            )
        return (TIER_PLAN_SHAPE, reason)
    scans = _scan_bindings(plan)
    for node in plan.walk():
        check = table.get(type(node))
        if check is not None:
            decline = check(node, scans)
            if decline is not None:
                return decline
    if tier == TIER_VOLCANO:
        return None
    # The generated operators and the batch evaluator cover the same scalar
    # expression shapes (record construction is the Volcano-only outlier).
    for node in plan.walk():
        for expression in expressions_of(node):
            if not supported_by_codegen(expression):
                return (
                    TIER_EXPRESSION,
                    f"expression {to_string(expression)} is served by the "
                    "Volcano interpreter",
                )
    return None


def tier_verdicts(
    physical: PhysicalPlan,
    *,
    enable_codegen: bool,
    enable_vectorized: bool,
) -> tuple[TierVerdict, ...]:
    """One :class:`TierVerdict` per tier, in cascade order: the ablation
    flags folded over the capability table.  The worker count is not a
    verdict input — the vectorized tier decides at run time whether its
    input fans out."""
    verdicts: list[TierVerdict] = []
    for tier in CASCADE_TIERS:
        decline = _config_decline(
            tier, enable_codegen=enable_codegen, enable_vectorized=enable_vectorized
        )
        if decline is None:
            decline = plan_verdict(tier, physical)
        if decline is None:
            verdicts.append(TierVerdict(tier, serves=True))
        else:
            code, reason = decline
            verdicts.append(TierVerdict(tier, serves=False, code=code, reason=reason))
    return tuple(verdicts)


def _config_decline(
    tier: str, *, enable_codegen: bool, enable_vectorized: bool
) -> Decline:
    if tier == TIER_CODEGEN and not enable_codegen:
        return (TIER_DISABLED, "disabled (enable_codegen=False)")
    if tier == TIER_VECTORIZED and not enable_vectorized:
        return (TIER_DISABLED, "disabled (enable_vectorized=False)")
    return None
