"""Static plan analysis: prepare-time type/nullability inference and
tier-capability verdicts.

The package has three layers (see :mod:`repro.core.analysis.model`):

* :func:`analyze_schema` — type & schema inference over a physical plan,
  raising :class:`repro.errors.AnalysisError` with ``TYP0xx`` diagnostic
  codes at ``prepare()`` time,
* :func:`tier_verdicts` / :data:`OPERATOR_CAPABILITIES` — the declarative
  tier-capability table predicting which execution tier serves a plan, with
  ``TIER0xx`` decline codes,
* :class:`NullabilityHints` — statically proven non-nullable columns and
  aggregate arguments, consumed by the vectorized tier and the sort kernels
  to skip missing-mask construction.
"""

from repro.core.analysis.capabilities import (
    OPERATOR_CAPABILITIES,
    plan_verdict,
    tier_verdicts,
)
from repro.core.analysis.model import (
    CASCADE_TIERS,
    ColumnInfo,
    EMPTY_HINTS,
    NullabilityHints,
    PlanAnalysis,
    SchemaAnalysis,
    TIER_DISABLED,
    TIER_EXPRESSION,
    TIER_GROUP_COLUMN,
    TIER_OUTER_JOIN,
    TIER_OUTER_UNNEST_PREDICATE,
    TIER_PLAN_SHAPE,
    TIER_RUNTIME_DEMOTION,
    TIER_CODEGEN,
    TIER_VECTORIZED,
    TIER_VOLCANO,
    TierVerdict,
    TYP_BAD_AGGREGATE,
    TYP_BAD_ARITHMETIC,
    TYP_INCOMPARABLE,
    TYP_NOT_A_COLLECTION,
    TYP_UNKNOWN_FIELD,
)
from repro.core.analysis.typecheck import analyze_schema

__all__ = [
    "OPERATOR_CAPABILITIES",
    "plan_verdict",
    "tier_verdicts",
    "CASCADE_TIERS",
    "ColumnInfo",
    "EMPTY_HINTS",
    "NullabilityHints",
    "PlanAnalysis",
    "SchemaAnalysis",
    "TierVerdict",
    "TIER_DISABLED",
    "TIER_EXPRESSION",
    "TIER_GROUP_COLUMN",
    "TIER_OUTER_JOIN",
    "TIER_OUTER_UNNEST_PREDICATE",
    "TIER_PLAN_SHAPE",
    "TIER_RUNTIME_DEMOTION",
    "TIER_CODEGEN",
    "TIER_VECTORIZED",
    "TIER_VOLCANO",
    "TYP_BAD_AGGREGATE",
    "TYP_BAD_ARITHMETIC",
    "TYP_INCOMPARABLE",
    "TYP_NOT_A_COLLECTION",
    "TYP_UNKNOWN_FIELD",
    "analyze_schema",
]
