"""Differential tests: vectorized vs scalar join-based evaluation.

The vectorized level loop must be *bit-identical* to the per-candidate
scalar reference -- same nodes, same levels, same float scores and
witness tuples, same order, same work counters -- on randomized
DBLP/XMark corpora, for both semantics, every eraser mode, and
databases reopened lazily from disk.  Any divergence is a bug in the
bulk erasure / segment-max / emission machinery, not a tolerance
question.
"""

import random

import pytest

from repro.algorithms.join_based import JoinBasedSearch
from repro.diskdb import load_database
from repro.reliability.deadline import Deadline

ERASER_MODES = ["auto", "bitmap", "interval", "roaring"]


def fingerprint(results):
    """Everything observable about a result list, exactly -- a list, so
    the comparison is order-sensitive: the vectorized path orders by
    the node table's document positions, the scalar one by Dewey ids."""
    return [(r.node.dewey, r.level, r.score, r.witness_scores)
            for r in results]


def run_pair(db, terms, semantics, eraser_mode, with_scores=True):
    scalar_engine = JoinBasedSearch(db.columnar_index,
                                    eraser_mode=eraser_mode,
                                    vectorized=False)
    vector_engine = JoinBasedSearch(db.columnar_index,
                                    eraser_mode=eraser_mode,
                                    vectorized=True)
    scalar, s_stats = scalar_engine.evaluate(terms, semantics,
                                             with_scores=with_scores)
    vector, v_stats = vector_engine.evaluate(terms, semantics,
                                             with_scores=with_scores)
    return scalar, s_stats, vector, v_stats


def random_queries(db, seed, n_queries=12, max_terms=3):
    """Seeded random keyword combinations over the corpus vocabulary,
    biased toward frequent terms so the joins actually produce work."""
    index = db.columnar_index
    vocab = sorted(index.vocabulary,
                   key=lambda t: -index.document_frequency(t))
    frequent = vocab[:40] or vocab
    rng = random.Random(seed)
    queries = []
    for _ in range(n_queries):
        n = rng.randint(1, max_terms)
        queries.append(rng.sample(frequent, min(n, len(frequent))))
    return queries


@pytest.mark.parametrize("semantics", ["elca", "slca"])
@pytest.mark.parametrize("eraser_mode", ERASER_MODES)
class TestRandomizedCorpora:
    def test_planted_queries_identical(self, corpus_db, semantics,
                                       eraser_mode):
        for terms in (["alpha", "beta"], ["cx", "cy"],
                      ["alpha", "beta", "gamma"], ["rare", "gamma"],
                      ["gamma"]):
            scalar, s_stats, vector, v_stats = run_pair(
                corpus_db, terms, semantics, eraser_mode)
            assert fingerprint(scalar) == fingerprint(vector)
            assert s_stats.as_dict() == v_stats.as_dict()

    def test_random_queries_identical(self, corpus_db, semantics,
                                      eraser_mode):
        for terms in random_queries(corpus_db, seed=1234):
            scalar, s_stats, vector, v_stats = run_pair(
                corpus_db, terms, semantics, eraser_mode)
            assert fingerprint(scalar) == fingerprint(vector), terms
            assert s_stats.as_dict() == v_stats.as_dict(), terms

    def test_without_scores_identical(self, corpus_db, semantics,
                                      eraser_mode):
        scalar, _, vector, _ = run_pair(corpus_db, ["alpha", "beta"],
                                        semantics, eraser_mode,
                                        with_scores=False)
        assert fingerprint(scalar) == fingerprint(vector)
        assert all(r.score == 0.0 for r in vector)


@pytest.mark.parametrize("semantics", ["elca", "slca"])
class TestSmallDocuments:
    def test_small_db(self, small_db, semantics):
        scalar, s_stats, vector, v_stats = run_pair(
            small_db, ["xml", "data"], semantics, "bitmap")
        assert fingerprint(scalar) == fingerprint(vector)
        assert s_stats.as_dict() == v_stats.as_dict()

    def test_fig1(self, fig1_db, semantics):
        scalar, _, vector, _ = run_pair(fig1_db, ["xml", "data"],
                                        semantics, "interval")
        assert fingerprint(scalar) == fingerprint(vector)

    def test_repeated_keyword(self, small_db, semantics):
        scalar, _, vector, _ = run_pair(small_db, ["xml", "xml"],
                                        semantics, "bitmap")
        assert fingerprint(scalar) == fingerprint(vector)


@pytest.fixture(scope="module", params=[None, 4],
                ids=["default-format", "format-v4"])
def lazy_corpus_db(request, corpus_db, tmp_path_factory):
    """`corpus_db` saved (default format or v4) and reopened lazily."""
    path = str(tmp_path_factory.mktemp("lazy_equivalence") / "db")
    if request.param is None:
        corpus_db.save(path)
    else:
        corpus_db.save(path, format_version=request.param)
    return load_database(path, lazy=True)


@pytest.mark.parametrize("semantics", ["elca", "slca"])
class TestLazyReopenedDatabases:
    def test_random_queries_identical(self, lazy_corpus_db, corpus_db,
                                      semantics):
        for terms in random_queries(corpus_db, seed=99):
            scalar, s_stats, vector, v_stats = run_pair(
                lazy_corpus_db, terms, semantics, "auto")
            assert fingerprint(scalar) == fingerprint(vector), terms
            assert s_stats.as_dict() == v_stats.as_dict(), terms
            eager, _ = JoinBasedSearch(corpus_db.columnar_index).evaluate(
                terms, semantics)
            assert fingerprint(eager) == fingerprint(vector), terms

    def test_without_scores_identical(self, lazy_corpus_db, semantics):
        scalar, _, vector, _ = run_pair(lazy_corpus_db, ["alpha", "beta"],
                                        semantics, "roaring",
                                        with_scores=False)
        assert fingerprint(scalar) == fingerprint(vector)


class _SteppedClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("semantics", ["elca", "slca"])
class TestDeadlinePartial:
    """A deadline expiring mid-query keeps the processed levels' results,
    in document order and aligned with their node-table positions."""

    @staticmethod
    def run_cut(db, terms, semantics, vectorized, after_levels):
        clock = _SteppedClock()
        deadline = Deadline(1.0, on_deadline="partial", clock=clock)
        processed = []

        def observer(level, columns, joined, emitted):
            processed.append(level)
            if len(processed) == after_levels:
                clock.now = 1.0  # expired at the next level's poll

        engine = JoinBasedSearch(db.columnar_index, vectorized=vectorized)
        results, stats = engine.evaluate(terms, semantics,
                                         observer=observer,
                                         deadline=deadline)
        return results, stats, processed

    @pytest.mark.parametrize("after_levels", [1, 2, 3])
    def test_partial_is_ordered_prefix_of_levels(self, dblp_db, semantics,
                                                 after_levels):
        terms = ["alpha", "gamma"]
        full, _ = JoinBasedSearch(dblp_db.columnar_index).evaluate(
            terms, semantics)
        partial, stats, processed = self.run_cut(
            dblp_db, terms, semantics, True, after_levels)
        assert stats.partial and stats.levels_skipped > 0
        assert len(processed) == after_levels
        assert [r.node.dewey for r in partial] == \
            sorted(r.node.dewey for r in partial)
        expected = [r for r in full if r.level in processed]
        assert expected, "the cut must keep some results"
        assert fingerprint(partial) == fingerprint(expected)
        scalar, s_stats, _ = self.run_cut(dblp_db, terms, semantics, False,
                                          after_levels)
        assert fingerprint(scalar) == fingerprint(partial)
        assert s_stats.as_dict() == stats.as_dict()
