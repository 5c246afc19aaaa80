"""The join-based algorithm for complete ELCA/SLCA results (section III).

Query evaluation is reduced to per-level relational joins over the
columnar JDewey index: at level ``l`` the JDewey numbers present in all
k term columns are exactly the nodes whose subtrees contain every
keyword (the C-nodes) at that level.  Levels are processed bottom-up,
so the semantic pruning is a pure bookkeeping step:

* when a number joins at level ``l``, every sequence through it is
  *erased* for all higher levels (those occurrences already belong to a
  subtree containing all keywords);
* an **ELCA** is a joined number that retains at least one *free*
  (non-erased) witness per keyword;
* an **SLCA** is a joined number with *no* erased sequence in its range
  (no C-node strictly below it).

Note on fidelity: the paper's Algorithm 1 pseudo-code erases only the
matched pairs, which under-prunes when one keyword's occurrences under a
C-node outnumber another's; the refined range-checking formulation in
section III-E ("when the join of column l-1 finishes, all the sequences
within A_k are excluded") erases the whole range, which is the rule that
matches the ELCA definition.  This module implements the range rule.

Scores are computed on the fly: a result's score sums, per keyword, the
best damped local score among its free witnesses (section II-B).

Two execution strategies share the level loop:

* the **vectorized** path (default) checks every joined number of a
  level with NumPy bulk operations -- bulk run-bound slicing via
  `Column.runs_of`, bulk erased counts / free masks from the erasure
  structures, and an `np.maximum.reduceat` segment-max for witness
  scores -- and emits the level's results in bulk as well: nodes and
  their document-order positions come from one `nodes_at` fancy-index
  into the index's node table, scores from one
  `RankingModel.score_results` call, and the final document order from
  one stable argsort of the positions.  Per-level cost stays columnar
  all the way to the returned list, matching the paper's
  bulk-relational design;
* the **scalar** path (``vectorized=False``) applies the same test one
  candidate at a time and sorts on Dewey ids.  It is retained as the
  differential-testing and benchmarking reference: both paths produce
  bit-identical results in the same order.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..index.columnar import ColumnarIndex, ColumnarPostings
from ..obs.profiler import profile_phase
from ..obs.tracing import NULL_TRACER
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from ..reliability.errors import DeadlineExceeded
from ..scoring.ranking import RankingModel
from .base import (ELCA, SLCA, ExecutionStats, SearchResult, check_semantics,
                   sort_by_document_order)
from .erasure import make_eraser


class JoinBasedSearch:
    """Evaluates complete ELCA/SLCA result sets over a `ColumnarIndex`.

    Parameters
    ----------
    index:
        The columnar JDewey index of the document.
    planner:
        Join-algorithm selection policy; defaults to the paper's dynamic
        (context-aware) policy.
    eraser_mode:
        ``auto`` (default, picks a dense bitmap for small domains and
        roaring containers above one chunk), ``roaring``, ``bitmap``,
        or ``interval`` -- the section III-E range-checking structure;
        all compute identical results.
    vectorized:
        ``True`` (default) checks each level's candidates with bulk
        NumPy operations; ``False`` runs the per-candidate scalar
        reference path.  Results are identical.
    postings_cache:
        Optional `repro.cache.QueryCache`; when given, per-term postings
        lookups go through its LRU instead of straight to the index.
    tracer:
        Optional `repro.obs.Tracer`; defaults to the no-op tracer.  The
        engine records O(levels) spans per query (postings fetch, then
        per level: join tagged with the section III-C plan choice and
        cardinalities, scoring, erasure) -- never per-candidate spans.
    """

    def __init__(self, index: ColumnarIndex,
                 planner: Optional[JoinPlanner] = None,
                 eraser_mode: str = "auto",
                 vectorized: bool = True,
                 postings_cache=None,
                 tracer=None):
        self.index = index
        self.planner = planner if planner is not None else JoinPlanner()
        self.eraser_mode = eraser_mode
        self.vectorized = vectorized
        self.postings_cache = postings_cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ranking: RankingModel = index.ranking

    def evaluate(self, terms: Sequence[str], semantics: str = ELCA,
                 with_scores: bool = True, observer=None,
                 deadline: Optional[Deadline] = None
                 ) -> Tuple[List[SearchResult], ExecutionStats]:
        """All results for `terms`, in document order, plus work counters.

        ``observer``, if given, is called per processed level as
        ``observer(level, columns, joined, emitted_at_level)`` -- the
        hook behind `repro.algorithms.explain`.

        ``deadline`` (a `repro.reliability.Deadline`) is polled once per
        level -- the cheap boundary of this bottom-up loop.  On expiry
        the ``raise`` policy raises `DeadlineExceeded`; the ``partial``
        policy stops cleanly and returns the results of the levels
        already processed (a subset of the unbounded result set, since
        same-level candidates never interact), with ``stats.partial``
        set and the unvisited levels counted in ``stats.levels_skipped``.
        """
        check_semantics(semantics)
        tracer = self.tracer
        stats = ExecutionStats()
        terms = list(terms)
        if not terms:
            return [], stats
        with tracer.span("postings_fetch", terms=list(terms)) as pspan, \
                profile_phase("fetch"):
            if self.postings_cache is not None:
                postings = self.postings_cache.query_postings(self.index,
                                                              terms)
            else:
                postings = self.index.query_postings(terms)
            pspan.tag(list_sizes=[len(p) for p in postings])
        if any(len(p) == 0 for p in postings):
            return [], stats
        # Term order after shortest-first sorting; remember the mapping so
        # witness scores line up with the caller's term order.
        term_order = {p.term: i for i, p in enumerate(postings)}
        caller_slot = [term_order[t] for t in terms]

        start_level = min(p.max_len for p in postings)
        erasers = [make_eraser(self.eraser_mode, len(p)) for p in postings]
        damping_base = self.ranking.damping.base
        results: List[SearchResult] = []
        # Document-order positions of `results`, one array per emitting
        # level (vectorized path only).
        positions: List[np.ndarray] = []

        for level in range(start_level, 0, -1):
            if deadline is not None and deadline.expired():
                if not deadline.partial_ok:
                    deadline.raise_expired()
                stats.partial = True
                stats.levels_skipped += level
                break
            try:
                self._process_level(level, postings, erasers, semantics,
                                    with_scores, caller_slot, damping_base,
                                    stats, results, positions, observer,
                                    tracer)
            except DeadlineExceeded:
                # Raised mid-level by a lazy posting fetch polling the
                # thread-local deadline; downgrade per policy.  Results
                # emitted before the cut are individually valid (the
                # ELCA/SLCA test only reads lower-level erasures), so
                # keeping them preserves the subset guarantee.
                if deadline is None or not deadline.partial_ok:
                    raise
                stats.partial = True
                stats.levels_skipped += level
                break
        if not self.vectorized:
            return sort_by_document_order(results), stats
        if not results:
            return results, stats
        order = np.argsort(np.concatenate(positions), kind="stable")
        return [results[i] for i in order.tolist()], stats

    def _process_level(self, level: int, postings, erasers, semantics: str,
                       with_scores: bool, caller_slot: List[int],
                       damping_base: float, stats: ExecutionStats,
                       results: List[SearchResult],
                       positions: List[np.ndarray], observer,
                       tracer) -> None:
        """Join, check, score and erase one level of the bottom-up loop."""
        columns = [p.column(level) for p in postings]
        if any(len(c) == 0 for c in columns):
            return
        stats.levels_processed += 1
        plan_mark = len(stats.per_level_plan)
        with tracer.span("join", level=level) as jspan, \
                profile_phase("join"):
            joined = self.planner.intersect_all(
                [c.distinct for c in columns], stats, level)
            jspan.tag(
                plan=[alg for _lvl, alg
                      in stats.per_level_plan[plan_mark:]],
                inputs=[int(c.n_distinct) for c in columns],
                output=int(len(joined)))
        if len(joined) == 0:
            if observer is not None:
                observer(level, columns, joined, 0)
            return
        # Run boundaries of every joined value in every column, in bulk.
        run_bounds = [column.runs_of(joined) for column in columns]
        with tracer.span("score", level=level) as sspan, \
                profile_phase("score"):
            if self.vectorized:
                emitted_at_level = self._check_level_vectorized(
                    joined, level, postings, columns, run_bounds,
                    erasers, semantics, with_scores, caller_slot,
                    damping_base, stats, results, positions)
            else:
                emitted_at_level = 0
                for j, number in enumerate(joined):
                    stats.candidates_checked += 1
                    emitted = self._check_candidate(
                        int(number), level, j, postings, columns,
                        run_bounds, erasers, semantics, with_scores,
                        caller_slot, damping_base)
                    if emitted is not None:
                        results.append(emitted)
                        emitted_at_level += 1
                        stats.results_emitted += 1
            sspan.tag(candidates=int(len(joined)),
                      emitted=emitted_at_level)
        if observer is not None:
            observer(level, columns, joined, emitted_at_level)
        # Erase every joined range *after* the level is fully checked:
        # same-level candidates never interact (disjoint subtrees).
        erasure_mark = stats.erasures
        with tracer.span("erase", level=level) as espan, \
                profile_phase("erase"):
            if self.vectorized:
                for t, column in enumerate(columns):
                    lows, highs = run_bounds[t]
                    lo_ords, hi_ords = column.ordinal_spans(lows, highs)
                    erasers[t].mark_many(lo_ords, hi_ords)
                    stats.erasures += int((highs - lows).sum())
            else:
                for t, column in enumerate(columns):
                    lows, highs = run_bounds[t]
                    for j in range(len(joined)):
                        a, b = int(lows[j]), int(highs[j])
                        ordinals = column.seq_idx[a:b]
                        erasers[t].mark(int(ordinals[0]),
                                        int(ordinals[-1]) + 1)
                        stats.erasures += b - a
            espan.tag(erased=stats.erasures - erasure_mark)

    def _check_level_vectorized(self, joined: np.ndarray, level: int,
                                postings: List[ColumnarPostings], columns,
                                run_bounds, erasers, semantics: str,
                                with_scores: bool, caller_slot: List[int],
                                damping_base: float, stats: ExecutionStats,
                                results: List[SearchResult],
                                positions: List[np.ndarray]) -> int:
        """Apply the ELCA/SLCA test to every joined number of a level.

        Bit-identical to looping `_check_candidate`, but every step is a
        bulk array operation: erased counts per run come from the
        eraser's prefix/binary-search bulk API, free witnesses from a
        bulk mask, and per-run best damped scores from a segment max
        (`np.maximum.reduceat`) over the concatenated run ordinals.
        The survivors are emitted together: their nodes and
        document-order positions (appended to `positions`, aligned with
        `results`) from the node table, their scores from
        `RankingModel.score_results`.
        """
        n = len(joined)
        stats.candidates_checked += n
        alive = np.ones(n, dtype=bool)
        for t, column in enumerate(columns):
            lows, highs = run_bounds[t]
            lo_ords, hi_ords = column.ordinal_spans(lows, highs)
            erased = erasers[t].erased_counts(lo_ords, hi_ords)
            if semantics == SLCA:
                alive &= erased == 0
            else:
                alive &= erased < highs - lows
        alive_idx = np.nonzero(alive)[0]
        if len(alive_idx) == 0:
            return 0
        if with_scores:
            witness = np.empty((len(columns), len(alive_idx)),
                               dtype=np.float64)
            for t, column in enumerate(columns):
                lows, highs = run_bounds[t]
                a_lows = lows[alive_idx]
                counts = (highs - lows)[alive_idx]
                offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
                total = int(offsets[-1] + counts[-1])
                # Concatenated positions of every surviving run: for run
                # j the slots offsets[j]:offsets[j]+counts[j] hold
                # a_lows[j] .. a_lows[j]+counts[j]-1.
                flat = np.repeat(a_lows - offsets, counts) + np.arange(total)
                ordinals = column.seq_idx[flat]
                p = postings[t]
                damped = (p.scores[ordinals]
                          * damping_base ** (p.lengths[ordinals] - level))
                free = erasers[t].free_mask(ordinals)
                witness[t] = np.maximum.reduceat(
                    np.where(free, damped, -np.inf), offsets)
        nodes, node_positions = self.index.nodes_at(level, joined[alive_idx])
        if with_scores:
            ordered = witness.take(caller_slot, axis=0)
            scores = self.ranking.score_results(ordered)
            witnesses = zip(*ordered.tolist())
        else:
            scores = repeat(0.0)
            witnesses = repeat((0.0,) * len(caller_slot))
        results.extend(map(SearchResult, nodes.tolist(), repeat(level),
                           scores, witnesses))
        positions.append(node_positions)
        emitted = len(alive_idx)
        stats.results_emitted += emitted
        return emitted

    def _check_candidate(self, number: int, level: int, j: int,
                         postings: List[ColumnarPostings], columns,
                         run_bounds, erasers, semantics: str,
                         with_scores: bool, caller_slot: List[int],
                         damping_base: float) -> Optional[SearchResult]:
        """Apply the ELCA/SLCA test to one joined number."""
        witness: List[float] = [0.0] * len(postings)
        for t, column in enumerate(columns):
            a = int(run_bounds[t][0][j])
            b = int(run_bounds[t][1][j])
            ordinals = column.seq_idx[a:b]
            lo, hi = int(ordinals[0]), int(ordinals[-1]) + 1
            erased = erasers[t].erased_count(lo, hi)
            if semantics == SLCA:
                if erased:
                    return None
                free_ordinals = ordinals
            else:
                if erased >= b - a:
                    return None  # no free witness for this keyword
                if erased:
                    mask = erasers[t].free_mask(ordinals)
                    free_ordinals = ordinals[mask]
                else:
                    free_ordinals = ordinals
            if with_scores:
                p = postings[t]
                damped = (p.scores[free_ordinals]
                          * damping_base
                          ** (p.lengths[free_ordinals] - level))
                witness[t] = float(damped.max())
        node = self.index.node_at(level, number)
        ordered = tuple(witness[slot] for slot in caller_slot)
        score = self.ranking.score_result(ordered) if with_scores else 0.0
        return SearchResult(node, level, score, ordered)


def search(index: ColumnarIndex, terms: Sequence[str],
           semantics: str = ELCA, planner: Optional[JoinPlanner] = None,
           eraser_mode: str = "auto") -> List[SearchResult]:
    """One-shot convenience wrapper around `JoinBasedSearch.evaluate`."""
    engine = JoinBasedSearch(index, planner, eraser_mode)
    results, _stats = engine.evaluate(terms, semantics)
    return results
