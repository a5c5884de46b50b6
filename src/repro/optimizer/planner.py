"""Join-order selection for chains of containment joins.

Given a chain ``s_1 // s_2 // ... // s_k`` the planner picks the
parenthesization minimizing the total estimated intermediate result size
(the classic optimizer objective the paper's introduction motivates).

Chain-segment cardinalities come from a pluggable
:class:`~repro.optimizer.generator.CardinalityGenerator`: the enumerator
asks the generator for the size of every segment ``i..j`` and never
assumes how that number is produced.  Wrapping a plain estimator in the
default adapter (:class:`~repro.optimizer.generator.EstimatorGenerator`)
reproduces the historical behavior exactly — adjacent pairs are
estimated, longer segments compose under the independence assumption::

    size(i..j) = size(i..j-1) · size(j-1, j) / |s_{j-1}|

— while the exact-oracle, service-backed and pessimistic upper-bound
generators plug in without touching the enumerator.  Dynamic programming
over segments then mirrors matrix-chain ordering.

:func:`optimize` is the entry point; it accepts generators, generator
names and plain estimators alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.errors import PlanError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimator, _from_wire_float, _to_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.catalog import StatisticsCatalog
    from repro.optimizer.generator import CardinalityGenerator

#: Wire-format version written by :meth:`JoinPlan.to_dict`.
PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class JoinPlan:
    """A parenthesization of the chain segment ``lo..hi`` (inclusive).

    Leaves (``lo == hi``) are base node sets; internal nodes join the
    results of ``left`` and ``right`` (adjacent segments).
    """

    lo: int
    hi: int
    estimated_size: float
    left: "JoinPlan | None" = None
    right: "JoinPlan | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.lo == self.hi

    def describe(self, names: Sequence[str]) -> str:
        """Human-readable plan, e.g. ``(paper ⋈ (appendix ⋈ table))``."""
        if self.is_leaf:
            return names[self.lo]
        assert self.left is not None and self.right is not None
        return (
            f"({self.left.describe(names)} ⋈ {self.right.describe(names)})"
        )

    def to_dict(self) -> dict[str, Any]:
        """Wire form of the plan tree, versioned with
        :data:`PLAN_SCHEMA_VERSION`.

        Strictly JSON-representable, following the same conventions as
        :meth:`repro.estimators.base.Estimate.to_dict`: non-finite sizes
        are encoded as the strings ``"Infinity"`` / ``"-Infinity"`` /
        ``"NaN"``.  Only the root carries ``schema_version``; subtrees
        are plain nodes.
        """

        def node(plan: "JoinPlan") -> dict[str, Any]:
            payload: dict[str, Any] = {
                "lo": plan.lo,
                "hi": plan.hi,
                "estimated_size": _to_wire(plan.estimated_size),
            }
            if not plan.is_leaf:
                assert plan.left is not None and plan.right is not None
                payload["left"] = node(plan.left)
                payload["right"] = node(plan.right)
            return payload

        return {"schema_version": PLAN_SCHEMA_VERSION, **node(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JoinPlan":
        """Rebuild a :class:`JoinPlan` from its :meth:`to_dict` form.

        Raises :class:`~repro.core.errors.PlanError` for a missing or
        unsupported ``schema_version`` and for structurally invalid
        nodes (a leaf with children, an internal node missing one, or
        children that do not partition the segment).
        """
        if not isinstance(payload, dict):
            raise PlanError(
                f"plan payload must be a dict, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise PlanError(
                f"unsupported JoinPlan schema_version {version!r} "
                f"(this version reads {PLAN_SCHEMA_VERSION})"
            )

        def node(data: Any) -> "JoinPlan":
            if not isinstance(data, dict):
                raise PlanError(
                    f"plan node must be a dict, got {type(data).__name__}"
                )
            try:
                lo = int(data["lo"])
                hi = int(data["hi"])
                size = _from_wire_float(data["estimated_size"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PlanError(f"malformed plan node: {exc}") from exc
            if size is None:
                raise PlanError("plan node estimated_size cannot be null")
            if lo > hi:
                raise PlanError(f"plan node has lo {lo} > hi {hi}")
            left_data = data.get("left")
            right_data = data.get("right")
            if lo == hi:
                if left_data is not None or right_data is not None:
                    raise PlanError(
                        f"leaf plan node {lo} must not have children"
                    )
                return cls(lo, hi, size)
            if left_data is None or right_data is None:
                raise PlanError(
                    f"internal plan node {lo}..{hi} needs both children"
                )
            left = node(left_data)
            right = node(right_data)
            if (
                left.lo != lo
                or right.hi != hi
                or left.hi + 1 != right.lo
            ):
                raise PlanError(
                    f"children {left.lo}..{left.hi} and "
                    f"{right.lo}..{right.hi} do not partition {lo}..{hi}"
                )
            return cls(lo, hi, size, left, right)

        return node(payload)


def plan_cost(plan: JoinPlan) -> float:
    """Total estimated size of all *intermediate* results of ``plan``.

    The final (root) result is excluded: it is identical for every
    parenthesization and would only blur the comparison.
    """

    def internal_sizes(node: JoinPlan, is_root: bool) -> float:
        if node.is_leaf:
            return 0.0
        assert node.left is not None and node.right is not None
        own = 0.0 if is_root else node.estimated_size
        return (
            own
            + internal_sizes(node.left, False)
            + internal_sizes(node.right, False)
        )

    return internal_sizes(plan, True)


def optimize(
    node_sets: Sequence[NodeSet],
    generator: "CardinalityGenerator | Estimator | str" = "PL",
    *,
    workspace: Workspace | None = None,
    catalog: "StatisticsCatalog | None" = None,
    **config: Any,
) -> JoinPlan:
    """Pick the cheapest parenthesization of a containment-join chain.

    Args:
        node_sets: the chain ``s_1 // ... // s_k`` (k >= 2), outermost
            ancestor first.
        generator: a :class:`~repro.optimizer.generator
            .CardinalityGenerator`, a bare estimator (auto-wrapped in
            the pairwise adapter), or any name
            :func:`~repro.optimizer.generator.resolve_generator`
            accepts ("PL", "exact", "ubound", "pessimistic", ...).
        workspace: shared position domain (defaults per estimator call,
            matching the historical planner behavior).
        catalog: optional statistics catalog forwarded to the
            generator's ``setup_for_workload`` hook.
        **config: constructor arguments when ``generator`` is a name.

    Returns:
        the optimal :class:`JoinPlan` (ties broken toward left-deep).

    Raises:
        PlanError: for chains shorter than two node sets or when the
            generator's ``pre_check`` rejects the workload.
    """
    from repro.optimizer.generator import PlanningState, as_generator

    k = len(node_sets)
    if k < 2:
        raise PlanError("chain optimization needs >= 2 node sets")

    gen = as_generator(generator, **config)
    gen.setup_for_workload(workspace, catalog)
    state = PlanningState(tuple(node_sets), workspace=workspace)
    gen.pre_check(state)

    # segment_size[i][j]: estimated tuples of the chain s_i // ... // s_j,
    # filled shortest-first so pairwise generators memoize bottom-up.
    segment_size = [[0.0] * k for __ in range(k)]
    for length in range(1, k + 1):
        for i in range(k - length + 1):
            j = i + length - 1
            segment_size[i][j] = gen.estimate_join(i, j, state)

    # Matrix-chain DP over (cost, plan).
    best: dict[tuple[int, int], JoinPlan] = {}
    cost: dict[tuple[int, int], float] = {}
    for i in range(k):
        best[(i, i)] = JoinPlan(i, i, segment_size[i][i])
        cost[(i, i)] = 0.0
    for length in range(2, k + 1):
        for i in range(k - length + 1):
            j = i + length - 1
            champion: JoinPlan | None = None
            champion_cost = float("inf")
            for split in range(i, j):
                left = best[(i, split)]
                right = best[(split + 1, j)]
                subtotal = (
                    cost[(i, split)]
                    + cost[(split + 1, j)]
                    + (0.0 if split == i else segment_size[i][split])
                    + (0.0 if split + 1 == j else segment_size[split + 1][j])
                )
                if subtotal < champion_cost:
                    champion_cost = subtotal
                    champion = JoinPlan(
                        i, j, segment_size[i][j], left, right
                    )
            assert champion is not None
            best[(i, j)] = champion
            cost[(i, j)] = champion_cost
    return best[(0, k - 1)]
