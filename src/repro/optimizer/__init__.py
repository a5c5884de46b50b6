"""Cost-based containment-join ordering — the paper's motivating use case.

The introduction's example: ``//paper[appendix/table]`` can be evaluated
as ``(paper ⋈ appendix) ⋈ table`` or ``paper ⋈ (appendix ⋈ table)``, and
the better order depends on the intermediate result sizes — which is what
the estimators of this package predict.  This module turns that example
into a small optimizer for chains of containment joins.

Cardinalities reach the planner through the pluggable
:class:`~repro.optimizer.generator.CardinalityGenerator` interface:
estimator-backed, service-backed, exact-oracle, or the pessimistic
upper-bound generator.  :func:`optimize` is the entry point.
"""

from repro.optimizer.chain import chain_join_size
from repro.optimizer.generator import (
    BoundGenerator,
    CardinalityGenerator,
    EstimatorGenerator,
    ExactGenerator,
    PairwiseGenerator,
    PlanningState,
    ServiceGenerator,
    as_generator,
    available_generators,
    resolve_generator,
)
from repro.optimizer.planner import (
    PLAN_SCHEMA_VERSION,
    JoinPlan,
    optimize,
    plan_cost,
)
from repro.optimizer.twig import (
    TwigNode,
    estimate_twig_selectivity,
    estimate_twig_size,
    twig,
    twig_match_count,
    twig_semijoin_count,
)

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "BoundGenerator",
    "CardinalityGenerator",
    "EstimatorGenerator",
    "ExactGenerator",
    "JoinPlan",
    "PairwiseGenerator",
    "PlanningState",
    "ServiceGenerator",
    "TwigNode",
    "as_generator",
    "available_generators",
    "chain_join_size",
    "estimate_twig_selectivity",
    "estimate_twig_size",
    "optimize",
    "plan_cost",
    "resolve_generator",
    "twig",
    "twig_match_count",
    "twig_semijoin_count",
]
