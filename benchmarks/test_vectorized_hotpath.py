"""Microbenchmark: the vectorized level loop vs the scalar reference.

Times the Figure 9 DBLP high-frequency keyword pair, and the corpus's
two most frequent terms (an emission-heavy pair: thousands of results,
so result materialization dominates), through both execution
strategies of `JoinBasedSearch` and checks they agree exactly;
the equivalence assertions are the safety net, the timings are the
payload (printed, and emitted as ``BENCH_hotpath.json`` by
``python -m repro.bench.baseline``).  Run in smoke mode with
``REPRO_BENCH_SCALE=small``; no speed thresholds are asserted here --
CI machines are too noisy -- the committed baseline carries those
numbers.
"""

import json

import numpy as np

from repro.algorithms.join_based import JoinBasedSearch
from repro.bench.baseline import (SCHEMA, _column_values, _fig9_high_pair,
                                  hotpath_report)
from repro.bench.harness import timed
from repro.index.compression import compress_column, decompress_column


def test_vectorized_equals_scalar_on_hotpath(bench):
    db = bench.dblp
    queries = _fig9_high_pair(bench)
    assert queries, "workload must plant the high-frequency pair"
    scalar_engine = JoinBasedSearch(db.columnar_index, vectorized=False)
    vector_engine = JoinBasedSearch(db.columnar_index, vectorized=True)
    for semantics in ("elca", "slca"):
        for terms in queries:
            scalar, s_stats = scalar_engine.evaluate(terms, semantics)
            vector, v_stats = vector_engine.evaluate(terms, semantics)
            assert fingerprint(scalar) == fingerprint(vector)
            assert s_stats.as_dict() == v_stats.as_dict()


def fingerprint(results):
    return [(r.node.dewey, r.level, r.score, r.witness_scores)
            for r in results]


def _emission_heavy_pair(db):
    """The corpus's two most frequent terms."""
    index = db.columnar_index
    return sorted(index.vocabulary,
                  key=lambda t: -index.document_frequency(t))[:2]


def test_emission_heavy_pair(bench):
    db = bench.dblp
    terms = _emission_heavy_pair(db)
    scalar_engine = JoinBasedSearch(db.columnar_index, vectorized=False)
    vector_engine = JoinBasedSearch(db.columnar_index, vectorized=True)
    emitted = {}
    for semantics in ("elca", "slca"):
        scalar, s_stats = scalar_engine.evaluate(terms, semantics)
        vector, v_stats = vector_engine.evaluate(terms, semantics)
        assert fingerprint(scalar) == fingerprint(vector)
        assert s_stats.as_dict() == v_stats.as_dict()
        emitted[semantics] = len(vector)
    assert emitted["elca"] >= 1000, "the pair must emit thousands of results"
    scalar_ms = timed(lambda: scalar_engine.evaluate(terms, "elca"))
    vector_ms = timed(lambda: vector_engine.evaluate(terms, "elca"))
    print(f"\nemission-heavy {terms} ({emitted['elca']} ELCA results): "
          f"scalar {scalar_ms:.2f}ms, vectorized {vector_ms:.2f}ms, "
          f"speedup {scalar_ms / vector_ms:.2f}x")
    assert vector_ms > 0 and scalar_ms > 0


def test_level_loop_timings(bench):
    db = bench.dblp
    queries = _fig9_high_pair(bench)
    specs = [s for s in bench.builder.frequency_sweep(2)
             if s.low_frequency == max(bench.config.low_freqs)]
    bench.warm(db, specs)
    scalar_engine = JoinBasedSearch(db.columnar_index, vectorized=False)
    vector_engine = JoinBasedSearch(db.columnar_index, vectorized=True)

    def run(engine):
        for terms in queries:
            engine.evaluate(terms, "elca")

    scalar_ms = timed(lambda: run(scalar_engine))
    vector_ms = timed(lambda: run(vector_engine))
    print(f"\nlevel loop: scalar {scalar_ms:.2f}ms, "
          f"vectorized {vector_ms:.2f}ms, "
          f"speedup {scalar_ms / vector_ms:.2f}x")
    assert vector_ms > 0 and scalar_ms > 0


def test_decompress_column_timings(bench):
    """Decode every workload-term column both ways: equivalence asserted,
    speedup printed (the committed baseline carries the threshold)."""
    db = bench.dblp
    payloads = [compress_column(values)
                for values in _column_values(db, _fig9_high_pair(bench))]
    assert payloads, "workload terms must have columns"
    for scheme, payload in payloads:
        np.testing.assert_array_equal(
            decompress_column(scheme, payload, vectorized=True),
            decompress_column(scheme, payload, vectorized=False))

    def decode_all(vectorized):
        for scheme, payload in payloads:
            decompress_column(scheme, payload, vectorized=vectorized)

    scalar_ms = timed(lambda: decode_all(False))
    vector_ms = timed(lambda: decode_all(True))
    print(f"\ndecompress_column: scalar {scalar_ms:.2f}ms, "
          f"vectorized {vector_ms:.2f}ms, "
          f"speedup {scalar_ms / vector_ms:.2f}x")
    assert vector_ms > 0 and scalar_ms > 0


def test_hotpath_report_schema(bench, tmp_path):
    report = hotpath_report(bench, repeats=1, scale_label="smoke")
    assert report["schema"] == SCHEMA
    assert set(report["speedups"]) == {"level_loop", "erased_counts",
                                       "mark_many", "decompress_column",
                                       "decode_for", "erase_bitmap",
                                       "decode_cache", "result_cache"}
    pool = report["batch_pool"]
    assert set(pool["thread"]) == set(pool["process"]) == \
        {str(width) for width in pool["workers"]}
    assert all(qps > 0 for mode in ("thread", "process")
               for qps in pool[mode].values())
    for entry in report["ops"].values():
        assert entry["p50_ms"] > 0
        assert entry["p95_ms"] >= entry["p50_ms"]
    # The report round-trips through JSON (the emitter's output format).
    path = tmp_path / "BENCH_hotpath.json"
    path.write_text(json.dumps(report))
    assert json.loads(path.read_text())["ops"]
