"""Tests for alternative monotone combining functions.

The paper only assumes Monotonicity of F (section II-B); these tests
exercise the implementation's claim that the algorithms are "not
restricted" to the sum: max and weighted-sum combiners must keep every
engine in agreement with the oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.algorithms.base import sort_by_score
from repro.algorithms.topk_join import BoundOps
from repro.scoring.ranking import (MaxCombiner, RankingModel, SumCombiner,
                                   WeightedSumCombiner)
from tests.conftest import SMALL_XML


def db_with(combiner):
    return XMLDatabase.from_xml_text(
        SMALL_XML, ranking=RankingModel(combiner=combiner))


class TestCombinerAlgebra:
    def test_max_combine(self):
        assert MaxCombiner().combine([0.2, 0.9, 0.5]) == pytest.approx(0.9)

    def test_max_empty(self):
        assert MaxCombiner().combine([]) == 0.0

    def test_weighted_combine(self):
        c = WeightedSumCombiner([2.0, 0.5])
        assert c.combine([1.0, 4.0]) == pytest.approx(4.0)

    def test_weighted_wrong_arity(self):
        with pytest.raises(ValueError):
            WeightedSumCombiner([1.0]).combine([0.5, 0.5])

    def test_weighted_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedSumCombiner([1.0, -0.1])

    @given(st.lists(st.floats(0, 10), min_size=2, max_size=4),
           st.integers(0, 3), st.floats(0, 5))
    def test_monotonicity(self, scores, which, bump):
        """Raising any single keyword score never lowers F."""
        which = which % len(scores)
        bumped = list(scores)
        bumped[which] += bump
        for combiner in (SumCombiner(), MaxCombiner(),
                         WeightedSumCombiner([0.5] * len(scores))):
            assert combiner.combine(bumped) >= \
                combiner.combine(scores) - 1e-12


# Finite scores wide enough to exercise rounding, subnormals and -0.0,
# small enough that no k-term (weighted) sum overflows.
SCORES = st.floats(-1e300, 1e300)
WEIGHTS = st.floats(0, 100)


@st.composite
def witness_matrices(draw):
    """A ``(keywords, results)`` matrix of best damped scores."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(SCORES, min_size=m, max_size=m),
                         min_size=k, max_size=k))
    return np.array(rows, dtype=np.float64).reshape(k, m)


def row_by_row(combiner, matrix):
    return [combiner.combine(tuple(column)) for column in matrix.T.tolist()]


def same_bits(bulk, rows):
    assert all(type(x) is float for x in bulk)
    return (np.asarray(bulk, dtype=np.float64).tobytes()
            == np.asarray(rows, dtype=np.float64).tobytes())


class TestBulkScoring:
    """`RankingModel.score_results` is `combine` per result, bit for bit."""

    @given(witness_matrices())
    def test_sum(self, matrix):
        model = RankingModel(combiner=SumCombiner())
        assert same_bits(model.score_results(matrix),
                         row_by_row(SumCombiner(), matrix))

    @given(witness_matrices())
    @example(np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]]))
    def test_max(self, matrix):
        model = RankingModel(combiner=MaxCombiner())
        assert same_bits(model.score_results(matrix),
                         row_by_row(MaxCombiner(), matrix))

    @given(st.data())
    def test_weighted_sum(self, data):
        matrix = data.draw(witness_matrices())
        weights = data.draw(st.lists(WEIGHTS, min_size=len(matrix),
                                     max_size=len(matrix)))
        combiner = WeightedSumCombiner(weights)
        model = RankingModel(combiner=combiner)
        assert same_bits(model.score_results(matrix),
                         row_by_row(combiner, matrix))

    def test_weighted_sum_bulk_arity_mismatch(self):
        model = RankingModel(combiner=WeightedSumCombiner([1.0, 2.0]))
        with pytest.raises(ValueError):
            model.score_results(np.ones((3, 4)))

    def test_combiner_without_bulk_form_falls_back(self):
        class MinCombiner:
            def combine(self, scores):
                assert isinstance(scores, tuple)
                return min(scores) if scores else 0.0

        matrix = np.array([[0.5, 0.2, 0.9], [0.1, 0.7, 0.9]])
        assert RankingModel(combiner=MinCombiner()).score_results(
            matrix) == [0.1, 0.2, 0.9]


class TestBoundOps:
    def test_sum_fold(self):
        ops = BoundOps("sum")
        assert ops.fold(1.0, 2.0, 0) == pytest.approx(3.0)
        assert ops.complete([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_max_fold(self):
        ops = BoundOps("max")
        assert ops.fold(1.0, 2.0, 0) == pytest.approx(2.0)
        assert ops.complete([1.0, 5.0, 3.0]) == pytest.approx(5.0)

    def test_weighted_fold_uses_slot(self):
        ops = BoundOps("weighted", [2.0, 0.5])
        assert ops.fold(0.0, 1.0, 0) == pytest.approx(2.0)
        assert ops.fold(0.0, 1.0, 1) == pytest.approx(0.5)

    def test_bound_infeasible_on_exhausted_slot(self):
        ops = BoundOps("sum")
        assert ops.bound(1.0, [None, 0.5], [0, 1]) == -float("inf")

    def test_bound_folds_unseen(self):
        ops = BoundOps("sum")
        assert ops.bound(1.0, [0.3, 0.5], [1]) == pytest.approx(1.5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BoundOps("median")

    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            BoundOps("weighted")


@pytest.mark.parametrize("combiner_factory", [
    MaxCombiner,
    lambda: WeightedSumCombiner([2.0, 0.5]),
], ids=["max", "weighted"])
class TestEnginesAgreeUnderCombiner:
    def test_complete_algorithms(self, combiner_factory):
        db = db_with(combiner_factory())
        expected = db.search("xml data", algorithm="oracle")
        for algorithm in ("join", "stack", "index"):
            got = db.search("xml data", algorithm=algorithm)
            assert [(r.node.dewey, round(r.score, 9)) for r in got] == \
                [(r.node.dewey, round(r.score, 9)) for r in expected]

    def test_topk_algorithms(self, combiner_factory):
        db = db_with(combiner_factory())
        full = sort_by_score(db.search("xml data", algorithm="oracle"))
        for algorithm in ("topk-join", "rdil", "hybrid"):
            got = db.search_topk("xml data", 3, algorithm=algorithm)
            assert [round(r.score, 9) for r in got] == \
                [round(r.score, 9) for r in full[:3]], algorithm


class TestCombinerSemantics:
    def test_weighted_order_can_differ_from_sum(self, corpus_db):
        """Weights change the ranking: heavily weighting one keyword
        reorders results whose witnesses differ."""
        db = XMLDatabase.from_tree(
            corpus_db.tree,
            ranking=RankingModel(combiner=WeightedSumCombiner([5.0, 0.1])))
        weighted = db.search_topk(["alpha", "beta"], 5)
        plain = corpus_db.search_topk(["alpha", "beta"], 5)
        # The weighted scores must reflect the weights exactly.
        for r in weighted:
            assert r.score == pytest.approx(
                5.0 * r.witness_scores[0] + 0.1 * r.witness_scores[1])
        assert [r.score for r in weighted] != [r.score for r in plain]

    def test_weight_arity_checked_in_topk(self, small_db):
        db = db_with(WeightedSumCombiner([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            db.search_topk("xml data", 3)

    def test_unsupported_combiner_raises_in_topk(self, small_db):
        class MedianCombiner:
            def combine(self, scores):
                return sorted(scores)[len(scores) // 2]

            def upper_bound(self, bounds):
                return self.combine(list(bounds))

        db = db_with(MedianCombiner())
        with pytest.raises(NotImplementedError):
            db.search_topk("xml data", 3)

    def test_unsupported_combiner_ok_on_complete_path(self):
        class MinCombiner:  # monotone but exotic
            def combine(self, scores):
                return min(scores) if scores else 0.0

            def upper_bound(self, bounds):
                return self.combine(list(bounds))

        db = db_with(MinCombiner())
        results = db.search_ranked("xml data")
        assert results
        for r in results:
            assert r.score == pytest.approx(min(r.witness_scores))
