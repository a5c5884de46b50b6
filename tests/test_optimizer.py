"""Tests for repro.optimizer: chain sizes and join-order planning."""

import pytest

from repro.core.element import Element
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.join import containment_join_size
from repro.optimizer import chain_join_size, optimize, plan_cost
from repro.optimizer.planner import JoinPlan
from repro.xmltree import parse_xml


class _ExactEstimator:
    """Test double: an 'estimator' that returns the exact join size."""

    name = "EXACT"

    def estimate(self, ancestors, descendants, workspace=None):
        from repro.estimators.base import Estimate

        return Estimate(
            float(containment_join_size(ancestors, descendants)), self.name
        )


def brute_force_chain(node_sets):
    """O(prod |s_i|) chain count for validation."""

    def extend(prefix_element, depth):
        if depth == len(node_sets):
            return 1
        total = 0
        for element in node_sets[depth]:
            if prefix_element is None or prefix_element.is_ancestor_of(
                element
            ):
                total += extend(element, depth + 1)
        return total

    return extend(None, 0)


@pytest.fixture(scope="module")
def paper_doc():
    return parse_xml(
        "<lib>"
        "<paper><appendix><table/><table/></appendix></paper>"
        "<paper><appendix/></paper>"
        "<paper><section><table/></section></paper>"
        "<table/>"
        "</lib>"
    )


class TestChainJoinSize:
    def test_two_sets_equals_containment_join(self, figure1_tree):
        a, d = figure1_tree
        assert chain_join_size([a, d]) == containment_join_size(a, d)

    def test_single_set(self, figure1_tree):
        a, __ = figure1_tree
        assert chain_join_size([a]) == len(a)

    def test_paper_intro_example(self, paper_doc):
        """//paper//appendix//table has exactly 2 matches."""
        sets = [
            paper_doc.node_set(tag) for tag in ("paper", "appendix", "table")
        ]
        assert chain_join_size(sets) == 2
        assert chain_join_size(sets) == brute_force_chain(sets)

    def test_empty_link_breaks_chain(self, paper_doc):
        sets = [
            paper_doc.node_set("paper"),
            paper_doc.node_set("nothing"),
            paper_doc.node_set("table"),
        ]
        assert chain_join_size(sets) == 0

    def test_multiplicities(self):
        # Two nested a's over one d: chain a//a//d counts once per pair.
        a = NodeSet([Element("a", 1, 10), Element("a", 2, 9)])
        d = NodeSet([Element("d", 3, 4)])
        assert chain_join_size([a, a, d]) == 1  # outer->inner->d only
        assert chain_join_size([a, d]) == 2

    def test_against_brute_force_on_dataset(self, xmark_small):
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "annotation", "desp")
        ]
        # DP result must match the per-descendant accumulation definition:
        expected = 0
        annotations = sets[1]
        desps = sets[2]
        auctions = sets[0]
        for desp in desps:
            for ann in annotations:
                if not ann.is_ancestor_of(desp):
                    continue
                for auc in auctions:
                    if auc.is_ancestor_of(ann):
                        expected += 1
        assert chain_join_size(sets) == expected

    def test_empty_chain_rejected(self):
        with pytest.raises(EstimationError):
            chain_join_size([])


class TestOptimizeChain:
    def test_picks_smaller_intermediate(self, paper_doc):
        """The intro scenario: join the cheaper pair first."""
        names = ["paper", "appendix", "table"]
        sets = [paper_doc.node_set(tag) for tag in names]
        plan = optimize(sets, _ExactEstimator())
        # |paper ⋈ appendix| = 2, |appendix ⋈ table| = 2: tie; both plans
        # cost the same, so we only require a valid two-join plan.
        assert plan.lo == 0 and plan.hi == 2
        assert not plan.is_leaf

    def test_asymmetric_choice(self, xmark_small):
        """On real data the pair sizes differ; exact costs must justify
        the plan: its cost is minimal among both 3-chain options."""
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "annotation", "text")
        ]
        plan = optimize(sets, _ExactEstimator())
        left_first = containment_join_size(sets[0], sets[1])
        right_first = containment_join_size(sets[1], sets[2])
        chosen_first = (
            left_first if plan.left.hi == 1 else right_first
        )
        assert chosen_first == min(left_first, right_first)

    def test_plan_cost_matches_structure(self, xmark_small):
        sets = [
            xmark_small.node_set(tag)
            for tag in ("desp", "parlist", "listitem", "text")
        ]
        plan = optimize(sets, _ExactEstimator())
        # plan_cost sums intermediate sizes excluding the root.
        def collect(node, is_root=True):
            if node.is_leaf:
                return []
            sizes = [] if is_root else [node.estimated_size]
            return (
                sizes + collect(node.left, False) + collect(node.right, False)
            )

        assert plan_cost(plan) == pytest.approx(sum(collect(plan)))

    def test_describe(self):
        leaf_a = JoinPlan(0, 0, 10)
        leaf_b = JoinPlan(1, 1, 20)
        parent = JoinPlan(0, 1, 5, leaf_a, leaf_b)
        assert parent.describe(["x", "y"]) == "(x ⋈ y)"

    def test_too_short_chain_rejected(self, figure1_tree):
        a, __ = figure1_tree
        with pytest.raises(EstimationError):
            optimize([a], _ExactEstimator())

    def test_works_with_sampling_estimator(self, xmark_small):
        sets = [
            xmark_small.node_set(tag)
            for tag in ("open_auction", "bidder", "increase")
        ]
        estimator = IMSamplingEstimator(num_samples=50, seed=3)
        plan = optimize(
            sets, estimator, workspace=xmark_small.tree.workspace()
        )
        assert plan_cost(plan) >= 0.0
