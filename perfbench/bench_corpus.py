"""Inputs: the shared corpus and each workload's query list, all derived
from the workload seed.

The corpus is the harness's DBLP `Workbench` corpus at 8,000 papers with
the paper's ratios kept: one high-frequency keyword at n/5, the
low-frequency ladder x10 per step (10, 100, 1000, then n/5), and the
correlated "sensor network" groups at n/8.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.harness import BenchConfig
from repro.datagen.dblp import DBLPGenerator
from repro.datagen.workload import WorkloadBuilder

N_PAPERS = 8_000
ZIPF_EXPONENT = 1.2
# complete-zipf replays this many Zipf-drawn queries as its query log; at
# Zipf(1.2) over ~3.5k terms that touches 300-400 distinct terms, more
# than the 256-entry postings LRU holds.
ZIPF_QUERIES = 400
# serve-mixed draws terms whose document frequency lies in this band, so
# the engine's share of a request stays small next to serving.
SERVE_DF_BAND = (8, 64)
SERVE_REQUESTS = 240
TOPK_K = 10


def bench_config(seed: int) -> BenchConfig:
    return BenchConfig(seed=seed, workload_seed=seed, n_papers=N_PAPERS,
                       high_freq=N_PAPERS // 5,
                       low_freqs=(10, 100, 1_000, N_PAPERS // 5),
                       per_cell=2, max_keywords=5,
                       correlated_entities=N_PAPERS // 8, topk=TOPK_K)


def make_builder(seed: int) -> WorkloadBuilder:
    cfg = bench_config(seed)
    return WorkloadBuilder(high_freq=cfg.high_freq, low_freqs=cfg.low_freqs,
                           per_cell=cfg.per_cell,
                           max_keywords=cfg.max_keywords,
                           correlated_entities=cfg.correlated_entities,
                           seed=cfg.workload_seed)


def make_tree(seed: int, builder: WorkloadBuilder):
    """The corpus tree, generated the way `Workbench.dblp` does."""
    cfg = bench_config(seed)
    return DBLPGenerator(seed=cfg.seed, n_papers=cfg.n_papers,
                         abstract_words=12, plan=builder.plan()).generate()


def fig10_queries(builder: WorkloadBuilder) -> List[Tuple[str, ...]]:
    """The Figure 9 frequency sweeps (2, 3 and 4 keywords) plus the
    Figure 10 correlated sets: 30 queries."""
    specs = []
    for n_keywords in (2, 3, 4):
        specs.extend(builder.frequency_sweep(n_keywords))
    specs.extend(builder.correlated_queries())
    return [tuple(spec.terms) for spec in specs]


def vocabulary_by_df(db) -> Tuple[List[str], Dict[str, int]]:
    """Every indexed term, most frequent first (ties by name)."""
    df = {t: db.document_frequency(t) for t in db.columnar_index.vocabulary}
    ranked = sorted(df, key=lambda t: (-df[t], t))
    return ranked, df


def zipf_queries(ranked: Sequence[str], seed: int,
                 n: int = ZIPF_QUERIES) -> List[Tuple[str, ...]]:
    """2-4-term queries (sizes in equal shares), each term drawn
    Zipf(1.2) over the terms ranked by document frequency (a
    query-log-shaped stream).

    The draws are stratified: term slot j takes the rank at quantile
    (j + u_j) / slots, and the slots are then shuffled into queries.
    That keeps the Zipf shape exact while the number of slots that land
    on the few very frequent (and very expensive) terms no longer
    changes from seed to seed -- otherwise one seed's log would be
    measurably heavier than another's."""
    rng = np.random.default_rng([seed, 1])
    weights = np.arange(1, len(ranked) + 1, dtype=np.float64) \
        ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    sizes = [2 + i % 3 for i in range(n)]
    slots = sum(sizes)
    quantiles = (np.arange(slots) + rng.random(slots)) / slots
    pool = [int(r) for r in np.searchsorted(cdf, quantiles, side="right")
            .clip(0, len(ranked) - 1)]
    rng.shuffle(pool)
    order = rng.permutation(n)
    queries: List[Tuple[str, ...]] = [()] * n
    for slot in order:
        picked: List[int] = []
        while len(picked) < sizes[slot]:
            # Take the next pooled rank not already in this query.
            pos = next((p for p, r in enumerate(pool) if r not in picked),
                       None)
            if pos is None:  # only duplicates left: draw afresh
                rank = min(len(ranked) - 1, int(np.searchsorted(
                    cdf, rng.random(), side="right")))
                if rank not in picked:
                    picked.append(rank)
                continue
            picked.append(pool.pop(pos))
        queries[slot] = tuple(ranked[i] for i in picked)
    return queries


def serve_requests(ranked: Sequence[str], df: Dict[str, int], seed: int,
                   n: int = SERVE_REQUESTS) -> List[Tuple[str, Tuple[str, ...]]]:
    """Alternating ``/search`` and ``/topk`` requests over 2-3 terms from
    the rare-to-mid document-frequency band."""
    low, high = SERVE_DF_BAND
    band = [t for t in ranked if low <= df[t] <= high]
    rng = np.random.default_rng([seed, 2])
    requests = []
    for i in range(n):
        size = int(rng.integers(2, 4))
        picks = rng.choice(len(band), size=size, replace=False)
        terms = tuple(band[int(j)] for j in picks)
        requests.append(("/search" if i % 2 == 0 else "/topk", terms))
    return requests
