"""Tests for the public facade (`repro.api`)."""

import pytest

from repro import Query, XMLDatabase
from repro.algorithms.base import sort_by_score
from repro.planner.plans import JoinPlanner
from repro.scoring.ranking import ConstantScorer, RankingModel


class TestQuery:
    def test_from_string(self):
        assert Query("XML data xml").terms == ["xml", "data"]

    def test_from_sequence(self):
        assert Query(["XML", "Data", "xml"]).terms == ["xml", "data"]

    def test_len_and_iter(self):
        q = Query("a b c")
        assert len(q) == 3
        assert list(q) == ["a", "b", "c"]


class TestConstruction:
    def test_from_xml_text(self):
        db = XMLDatabase.from_xml_text("<a><b>xml data</b></a>")
        assert len(db) == 2

    def test_from_tree_freezes(self):
        from repro.xmltree.tree import Node, XMLTree

        tree = XMLTree(Node("a"))
        db = XMLDatabase.from_tree(tree)
        assert db.tree.frozen

    def test_generate_dblp(self):
        db = XMLDatabase.generate_dblp(seed=1, n_papers=25)
        assert db.tree.root.tag == "dblp"

    def test_generate_xmark(self):
        db = XMLDatabase.generate_xmark(seed=1, scale=0.002)
        assert db.tree.root.tag == "site"

    def test_indexes_lazy_and_cached(self, small_db):
        assert small_db._columnar is None
        idx = small_db.columnar_index
        assert small_db.columnar_index is idx
        inv = small_db.inverted_index
        assert small_db.inverted_index is inv

    def test_jdewey_assigned_on_construction(self, small_db):
        assert small_db.tree.root.jdewey == (1,)


class TestSearch:
    def test_default_algorithm_is_join(self, small_db):
        default = small_db.search("xml data")
        join = small_db.search("xml data", algorithm="join")
        assert [r.node.dewey for r in default] == \
            [r.node.dewey for r in join]

    @pytest.mark.parametrize("algorithm", ["join", "stack", "index",
                                           "oracle"])
    def test_all_algorithms_available(self, small_db, algorithm):
        results = small_db.search("xml data", algorithm=algorithm)
        assert results

    def test_query_object_accepted(self, small_db):
        q = Query("xml data")
        assert small_db.search(q) == small_db.search(q)

    def test_term_list_accepted(self, small_db):
        by_list = small_db.search(["XML", "data"])
        by_text = small_db.search("xml data")
        assert [r.node.dewey for r in by_list] == \
            [r.node.dewey for r in by_text]

    def test_unknown_algorithm_raises(self, small_db):
        with pytest.raises(ValueError):
            small_db.search("xml", algorithm="nope")

    def test_unknown_semantics_raises(self, small_db):
        with pytest.raises(ValueError):
            small_db.search("xml", semantics="nope")

    def test_custom_planner_forwarded(self, small_db):
        results = small_db.search("xml data", planner=JoinPlanner("merge"))
        assert results

    def test_search_ranked_descending(self, small_db):
        ranked = small_db.search_ranked("xml data")
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)


class TestSearchTopK:
    @pytest.mark.parametrize("algorithm", ["topk-join", "rdil", "hybrid",
                                           "join"])
    def test_all_topk_algorithms_agree(self, small_db, algorithm):
        expected = small_db.search_ranked("xml data")[:2]
        got = small_db.search_topk("xml data", 2, algorithm=algorithm)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_unknown_algorithm_raises(self, small_db):
        with pytest.raises(ValueError):
            small_db.search_topk("xml", 3, algorithm="nope")

    def test_result_len(self, small_db):
        assert len(small_db.search_topk("xml data", 1)) == 1

    def test_topk_result_iterable(self, small_db):
        result = small_db.search_topk("xml data", 2)
        assert [r.node.tag for r in result]

    def test_stats_attached(self, small_db):
        result = small_db.search_topk("xml data", 2)
        assert result.stats.tuples_scanned >= 0

    @pytest.mark.parametrize("scorer", [None, ConstantScorer()],
                             ids=["tfidf", "constant-ties"])
    def test_join_topk_is_ranked_complete_prefix(self, dblp_db, scorer):
        """Evaluate-then-truncate keeps exactly `sort_by_score(...)[:k]`,
        ties broken by document order (a constant scorer makes many)."""
        db = XMLDatabase.from_tree(dblp_db.tree,
                                   ranking=RankingModel(scorer=scorer))
        complete = db.search(["alpha", "gamma"])
        k = 5
        assert len(complete) > k
        got = db.search_topk(["alpha", "gamma"], k, algorithm="join")
        assert [(r.node.dewey, r.score, r.witness_scores) for r in got] == \
            [(r.node.dewey, r.score, r.witness_scores)
             for r in sort_by_score(complete)[:k]]


class TestIntrospection:
    def test_document_frequency_case_insensitive(self, small_db):
        assert small_db.document_frequency("XML") == \
            small_db.document_frequency("xml") > 0

    def test_len(self, small_db):
        assert len(small_db) == len(small_db.tree)
