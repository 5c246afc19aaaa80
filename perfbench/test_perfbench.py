"""Checks of the benchmark's own machinery, on a tiny corpus.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import bench_workloads as bw  # noqa: E402
from bench_trace import LAYERS, UNATTRIBUTED, SpanRecorder  # noqa: E402
from bench_util import (P95_MIN_SAMPLES, best_per_query,  # noqa: E402
                        complete_answer, p95_valid, percentile,
                        split_passes, topk_answer)
from repro.api import XMLDatabase  # noqa: E402

QUERIES = [("w00000", "w00001"), ("w00002", "w00003", "w00004"),
           ("w00001", "w00005")]


@pytest.fixture(scope="module")
def db():
    return XMLDatabase.generate_dblp(seed=3, n_papers=150,
                                     result_cache_size=0)


@pytest.fixture
def ctx(tmp_path):
    return bw.Context(str(tmp_path), "complete-zipf", 1, 1.0, False)


def perturb_complete(answer):
    (dewey, score), rest = answer[0], answer[1:]
    return [(dewey, score + 0.5)] + rest


def test_references_match_program(ctx, db):
    refs = [complete_answer(db.search(list(q), use_cache=False))
            for q in QUERIES]
    bw.run_queries(ctx, db, bw.BATCH_OP, QUERIES, refs, bw.Pass())
    assert (ctx.result.attempted, ctx.result.failed) == (len(QUERIES), 0)


def test_perturbed_complete_reference_is_a_failure(ctx, db):
    refs = [complete_answer(db.search(list(q), use_cache=False))
            for q in QUERIES]
    refs[1] = perturb_complete(refs[1])
    bw.run_queries(ctx, db, bw.BATCH_OP, QUERIES, refs, bw.Pass())
    assert ctx.result.attempted == len(QUERIES)
    assert ctx.result.failed == 1


def test_perturbed_topk_reference_is_a_failure(ctx, db):
    refs = [topk_answer(db.search_topk(list(q), k=10, algorithm="join")
                        .results) for q in QUERIES]
    refs[0] = refs[0][:-1]
    bw.run_queries(ctx, db, bw.TOPK_OP, QUERIES, refs, bw.Pass())
    assert (ctx.result.attempted, ctx.result.failed) == (len(QUERIES), 1)


def test_http_answers_are_checked(ctx, db):
    requests = [("/search", QUERIES[0]), ("/topk", QUERIES[1])]
    refs = [complete_answer(db.search(list(QUERIES[0]), use_cache=False)),
            topk_answer(db.search_topk(list(QUERIES[1]), k=10).results)]

    def body(results):
        return json.dumps({"results": [
            {"dewey": list(r.node.dewey), "score": r.score}
            for r in results], "partial": False}).encode()

    good = [(0, 0.0, 0.0, 200,
             body(db.search(list(QUERIES[0]), use_cache=False))),
            (1, 0.0, 0.0, 200,
             body(db.search_topk(list(QUERIES[1]), k=10).results))]
    bw.check_responses(ctx.result, good, requests, refs)
    assert ctx.result.failed == 0
    refs[0] = perturb_complete(refs[0])
    bad = good + [(3, 0.0, 0.0, 503, b"")]
    bw.check_responses(ctx.result, bad, requests, refs)
    assert ctx.result.failed == 2


def test_failed_premise_fails_the_run(ctx):
    ctx.result.premise("holds", True)
    assert ctx.result.premises_hold
    ctx.result.premise("does not hold", False, value=3)
    assert not ctx.result.premises_hold


def test_work_unit_mismatch_is_reported(ctx):
    bw.record_work_units(ctx, {"cold": [[1, 2, 3, 4]]})
    assert ctx.result.details["work_units"]["matches_earlier_run"] is None
    bw.record_work_units(ctx, {"cold": [[1, 2, 3, 4]]})
    assert ctx.result.details["work_units"]["matches_earlier_run"] is True
    bw.record_work_units(ctx, {"cold": [[1, 2, 3, 5]]})
    assert ctx.result.details["work_units"]["matches_earlier_run"] is False


def test_self_times_partition_the_root(ctx, db):
    from repro.api import XMLDatabase as cls

    original = cls.search
    with ctx.instrumentation.active():
        for qid, terms in enumerate(QUERIES):
            with ctx.recorder.root(qid, "query"):
                db.search(list(terms), use_cache=False)
    assert cls.search is original
    per_layer, root_ms, roots = ctx.recorder.self_times_ms()
    assert roots == len(QUERIES)
    assert sum(per_layer.values()) == pytest.approx(root_ms, rel=1e-9)
    assert per_layer["algorithms"] > 0 and per_layer["api"] > 0
    assert set(per_layer) == set(LAYERS) | {UNATTRIBUTED}


def test_recorder_is_silent_when_disabled():
    rec = SpanRecorder()
    with rec.root(1, "query"):
        pass
    assert rec.spans == []


def test_percentiles():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert p95_valid(P95_MIN_SAMPLES)
    assert not p95_valid(P95_MIN_SAMPLES - 1)


def test_query_latency_is_the_best_of_its_passes():
    passes = split_passes([3.0, 1.0, 2.0, 5.0, 4.0], 2)
    assert passes == [[3.0, 1.0], [2.0, 5.0]]
    assert best_per_query(passes) == [2.0, 1.0]


def test_benchmark_json_names_what_the_code_measures():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = dict(bw.LayerMetrics.UNITS)
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "complete-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
