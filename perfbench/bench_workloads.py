"""The workloads.  Each builds its inputs from the seed, checks every
answer against a reference computed during set-up by an independent
path, checks its premises, and fills a `Result`.

Every workload ingests the shared corpus during set-up (XML text ->
`parse_xml` -> index build -> `save_database` at the default format) and
opens it the way `repro serve` does, so the write side and the cold
decode are measured (per layer) in every traced run.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import os
import shutil
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import ExecutionStats
from repro.api import XMLDatabase
from repro.diskdb import load_database, save_database
from repro.index.compression import choose_codec
from repro.xmltree.parser import parse_xml

import bench_corpus as corpus
import bench_serve
from bench_trace import (LAYERS, NOT_TIMED, UNATTRIBUTED, Instrumentation,
                         SpanRecorder, graft_daemon_trace)
from bench_util import (P95_MIN_SAMPLES, best_per_query, complete_answer,
                        complete_answer_json, delta, dir_bytes, mean, median,
                        percentile, p95_valid, peak_rss_mb,
                        process_tree_peak_rss_mb, prom_sum, rate,
                        registry_totals, reset_peak_rss, same_answer,
                        split_passes, topk_answer, topk_answer_json,
                        work_units, WORK_UNIT_FIELDS)

SETUP_REPEATS = 3
# The traced run's per-query time may exceed the untraced one by at most
# this much before the two are said not to reconcile.
TRACE_TOLERANCE_PCT = 25.0
# Premise thresholds.
MIN_RANK_JOIN_SHARE = 0.5
MIN_SERVING_SHARE = 0.5
STACK_CHECKS = 8
# Warm passes the --no-tracing daemon serves for obs.tracing_overhead_ms.
NO_TRACING_PASSES = 3


def open_lazy(path: str):
    """The open `repro serve` does: lazy mmap, lazy verification; result
    cache off, every other cache at its default."""
    return load_database(path, lazy=True, verify="lazy",
                         result_cache_size=0)


def library_default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


class Result:
    """Metrics, answer checks and premises of one run."""

    def __init__(self):
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.premises: Dict[str, Dict] = {}
        self.details: Dict[str, object] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def premise(self, name: str, holds: bool, **facts) -> None:
        self.premises[name] = dict(facts, holds=bool(holds))

    @property
    def premises_hold(self) -> bool:
        return all(p["holds"] for p in self.premises.values())


class Context:
    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".perfbench", "work",
                                 f"{workload}-s{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.result = Result()
        self.recorder = SpanRecorder()
        self.instrumentation = Instrumentation(self.recorder)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# set-up shared by every workload
# ---------------------------------------------------------------------------

class Ingest:
    """One pass of XML text -> saved database, with its step timings."""

    def __init__(self, xml: str, out_dir: str, shards: Optional[int] = None):
        self.xml_bytes = len(xml.encode("utf-8"))
        settle()
        start = time.perf_counter()
        tree = parse_xml(xml)
        self.parse_s = time.perf_counter() - start
        settle()
        start = time.perf_counter()
        self.db = XMLDatabase(tree, result_cache_size=0)
        self.db.columnar_index
        self.db.inverted_index
        self.build_s = time.perf_counter() - start
        settle()
        start = time.perf_counter()
        save_database(self.db, out_dir, shards=shards)
        self.save_s = time.perf_counter() - start
        self.bytes_written = dir_bytes(out_dir)

    @property
    def ingest_s(self) -> float:
        return self.parse_s + self.build_s + self.save_s

    @property
    def mb_s(self) -> float:
        return self.xml_bytes / 1e6 / self.ingest_s


def settle() -> None:
    """Collect the benchmark's own garbage before a timed step, so every
    step starts from the same collector state (left alone, a pending
    generation-2 collection over earlier steps' garbage lands inside
    whichever step trips it and moves its time by up to 2x)."""
    gc.collect()


def make_inputs(seed: int):
    builder = corpus.make_builder(seed)
    tree = corpus.make_tree(seed, builder)
    return builder, tree, tree.to_xml()


def corpus_facts(ctx: Context, nodes: int, xml: str, db) -> None:
    index = db.columnar_index
    ctx.result.details["corpus"] = {
        "n_papers": corpus.N_PAPERS,
        "nodes": nodes,
        "xml_bytes": len(xml.encode("utf-8")),
        "vocabulary": len(index.vocabulary),
        "postings": sum(db.document_frequency(t) for t in index.vocabulary),
    }
    ctx.result.details["flush_policy"] = (
        "save_database(fsync=%r) (library default), format_version=%r"
        % (library_default(save_database, "fsync"),
           library_default(save_database, "format_version")))
    ctx.result.details["load_mode"] = (
        "load_database(lazy=True, verify='lazy', result_cache_size=0)")


def put_ingest(ctx: Context, ingest: Ingest) -> None:
    res = ctx.result
    res.details["ingest"] = {
        "parse_s": ingest.parse_s, "build_s": ingest.build_s,
        "save_s": ingest.save_s, "bytes_written": ingest.bytes_written,
        "xml_bytes": ingest.xml_bytes}
    res.put("ingest_mb_s", ingest.mb_s, "MB/s")
    res.put("bytes_per_input_byte",
            ingest.bytes_written / ingest.xml_bytes, "ratio")


def encode_seconds(db) -> float:
    """`choose_codec` (the format-v4 selector) over every column of the
    in-memory index; columns are materialized first, untimed."""
    index = db.columnar_index
    columns = []
    for term in index.vocabulary:
        postings = index.term_postings(term)
        for level in range(1, postings.max_len + 1):
            columns.append(postings.column(level).values)
    start = time.perf_counter()
    for values in columns:
        choose_codec(values)
    return time.perf_counter() - start


def cold_decode(indexes: Sequence) -> Dict[str, float]:
    """Time a cold ``term_postings(t).column(l)`` for every column of
    every term on freshly opened lazy indexes: the one place decode is
    not hidden by the caches."""
    columns = 0
    nbytes = 0
    start = time.perf_counter()
    for index in indexes:
        for term in index.vocabulary:
            postings = index.term_postings(term)
            for level in range(1, postings.max_len + 1):
                column = postings.column(level)
                columns += 1
                nbytes += int(column.values.nbytes)
    return {"decode_ms": (time.perf_counter() - start) * 1000.0,
            "columns": columns, "bytes": nbytes}


def decoded_cache(handle) -> Dict[str, int]:
    return handle.columnar_index._decoded_cache.as_dict()


def record_work_units(ctx: Context, per_query: Dict[str, List]) -> None:
    """Store the per-query work-unit counts; compare their digest with
    the one an earlier run of the same workload and seed stored."""
    blob = json.dumps(per_query, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    store = os.path.join(ctx.root, ".perfbench", "workunits")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{ctx.workload}-seed{ctx.seed}"
                               f"-trace{int(ctx.trace)}.json")
    match: Optional[bool] = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
        match = previous["digest"] == digest
        if not match:
            print(f"WORK-UNIT MISMATCH: {ctx.workload} seed {ctx.seed} "
                  f"differs from {path}", file=sys.stderr)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"digest": digest, "per_query": per_query}, handle)
    ctx.result.details["work_units"] = {
        "fields": list(WORK_UNIT_FIELDS),
        "digest": digest, "matches_earlier_run": match,
        "per_query": per_query}


def setup_opens(ctx: Context, db_dir: str,
                before_drop: Optional[Callable] = None):
    """Open the saved database `SETUP_REPEATS` times (median is
    `setup_s`); keep the last handle.  `before_drop` sees the first,
    still-cold handle before it is dropped."""
    times = []
    handle = None
    for i in range(SETUP_REPEATS):
        handle = None
        settle()
        start = time.perf_counter()
        handle = open_lazy(db_dir)
        times.append(time.perf_counter() - start)
        if i == 0 and before_drop is not None:
            before_drop(handle)
    ctx.result.details["setup_samples_s"] = times
    return handle, times


# ---------------------------------------------------------------------------
# in-process query workloads
# ---------------------------------------------------------------------------

class QueryOp:
    """How one in-process workload calls the program and reads the
    answer back."""

    def __init__(self, name: str, call: Callable, answer: Callable,
                 api_span: str, engine_span: str):
        self.name = name
        self.call = call
        self.answer = answer
        self.api_span = api_span
        self.engine_span = engine_span


def _topk_call(handle, terms):
    top = handle.search_topk(list(terms), k=corpus.TOPK_K)
    return top.results, top.stats


def _batch_call(handle, terms):
    batch = handle.search_batch([list(terms)], use_cache=False,
                                with_stats=True)
    if batch.errors:
        raise next(iter(batch.errors.values()))
    results, stats = batch[0]
    return results, stats


TOPK_OP = QueryOp("topk", _topk_call, topk_answer,
                  "XMLDatabase.search_topk", "TopKKeywordSearch.search")
BATCH_OP = QueryOp("complete", _batch_call, complete_answer,
                   "XMLDatabase.search_batch", "JoinBasedSearch.evaluate")


class Pass:
    """Latencies, merged stats and per-query work units of some queries."""

    def __init__(self):
        self.latencies_ms: List[float] = []
        self.stats = ExecutionStats()
        self.work: List[List[int]] = []


def run_query(ctx: Context, handle, op: QueryOp, terms, ref, into: Pass,
              recorder: Optional[SpanRecorder] = None, qid: int = 0,
              keep_work: bool = False) -> None:
    """Time one call, check its answer against `ref`, keep its stats.
    With a `recorder`, the call runs under a root span for query `qid`."""
    res = ctx.result
    start = time.perf_counter()
    try:
        if recorder is not None:
            with recorder.root(qid, "query"):
                results, stats = op.call(handle, terms)
        else:
            results, stats = op.call(handle, terms)
    except Exception as exc:  # counted as a failed operation
        into.latencies_ms.append((time.perf_counter() - start) * 1000.0)
        res.check(False, f"{terms}: {type(exc).__name__}: {exc}")
        return
    into.latencies_ms.append((time.perf_counter() - start) * 1000.0)
    res.check(same_answer(op.answer(results), ref),
              f"{op.name} {terms}: answer differs from reference")
    into.stats.merge(stats)
    if keep_work:
        into.work.append(work_units(stats))


def run_queries(ctx: Context, handle, op: QueryOp, queries, refs,
                into: Pass, seconds: Optional[float] = None,
                keep_work: bool = False) -> None:
    """One pass over `queries`; with `seconds`, whole passes until that
    long has passed.  Work units are kept for the first pass."""
    settle()
    begin = time.perf_counter()
    first = True
    while first or (seconds is not None
                    and time.perf_counter() - begin < seconds):
        for i, terms in enumerate(queries):
            run_query(ctx, handle, op, terms, refs[i], into,
                      keep_work=keep_work and first)
        first = False


def run_interleaved(ctx: Context, handle, op: QueryOp, queries, refs,
                    untraced: Pass, traced: Pass) -> None:
    """The traced run's loop: within a pass every other query is traced,
    and the next pass swaps the halves, so both sides see the same
    queries in the same cache sequence and the host's drift hits them
    alike.  Runs an even number of passes, at least `ctx.seconds`."""
    settle()
    begin = time.perf_counter()
    n = 0
    while n % 2 or time.perf_counter() - begin < ctx.seconds:
        for i, terms in enumerate(queries):
            if (i + n) % 2:
                with ctx.instrumentation.active():
                    run_query(ctx, handle, op, terms, refs[i], traced,
                              recorder=ctx.recorder,
                              qid=len(traced.latencies_ms))
            else:
                run_query(ctx, handle, op, terms, refs[i], untraced)
        n += 1


def zipf_workload(ctx: Context) -> None:
    res = ctx.result
    builder, tree, xml = make_inputs(ctx.seed)
    db_dir = ctx.path("db")
    ingest = Ingest(xml, db_dir)
    db = ingest.db
    corpus_facts(ctx, len(tree), xml, db)
    put_ingest(ctx, ingest)
    del tree
    ranked, _df = corpus.vocabulary_by_df(db)
    queries = corpus.zipf_queries(ranked, ctx.seed)
    refs = reference_complete(ctx, db, queries)
    terms = sorted({t for q in queries for t in q})
    encode_s = None
    if ctx.trace:
        encode_s = encode_seconds(db)
        topk_queries = corpus.fig10_queries(builder)
        # Evaluate everything with the complete join engine and truncate
        # (the "general join-based" line of Figure 10).
        topk_refs = [topk_answer(db.search_topk(
            list(q), k=corpus.TOPK_K, algorithm="join").results)
            for q in topk_queries]
    ingest.db = db = None
    reset_peak_rss()

    decode: Dict[str, float] = {}

    def measure_decode(handle) -> None:
        if ctx.trace:
            decode.update(cold_decode([handle.columnar_index]))

    handle, setup_times = setup_opens(ctx, db_dir, measure_decode)
    res.put("setup_s", median(setup_times), "s")

    cold = Pass()
    run_queries(ctx, handle, BATCH_OP, queries, refs, cold, keep_work=True)
    res.put("cold_query_p50_ms", median(cold.latencies_ms), "ms")

    before_postings = dict(handle.cache_stats()["postings"])
    before_decoded = decoded_cache(handle)
    untraced = Pass()
    traced = Pass()
    if not ctx.trace:
        run_queries(ctx, handle, BATCH_OP, queries, refs, untraced,
                    seconds=ctx.seconds, keep_work=True)
    else:
        run_interleaved(ctx, handle, BATCH_OP, queries, refs, untraced,
                        traced)
    after_postings = dict(handle.cache_stats()["postings"])
    after_decoded = decoded_cache(handle)
    res.put("rss_mb", peak_rss_mb(), "MB")
    if not ctx.trace:
        put_latency(ctx, split_passes(untraced.latencies_ms, len(queries)))
    record_work_units(ctx, {"cold": cold.work, "warm": untraced.work}
                      if not ctx.trace else {"cold": cold.work})

    # premises
    capacity = handle.cache.postings.capacity
    budget = after_decoded["capacity_bytes"]
    evictions = after_postings["evictions"] - before_postings["evictions"]
    res.premise("distinct terms overflow the postings LRU",
                len(terms) > capacity and evictions > 0,
                distinct_terms=len(terms), postings_capacity=capacity,
                evictions_in_measured_phase=evictions)
    res.premise("decoded working set fits the decoded-column cache",
                after_decoded["bytes"] <= budget
                and after_decoded["evictions"] == 0,
                decoded_bytes=after_decoded["bytes"], budget_bytes=budget,
                evictions=after_decoded["evictions"])

    if ctx.trace:
        layer = LayerMetrics(ctx)
        layer.ingest(ingest, median(setup_times), encode_s)
        layer.decode(decode)
        layer.caches(before_postings, after_postings, before_decoded,
                     after_decoded)
        layer.join_work(untraced.stats, len(untraced.latencies_ms))
        layer.trace_in_process(untraced, traced)
        topk_probe(ctx, layer, handle, topk_queries, topk_refs)
        layer.finish()
    handle = None


def topk_probe(ctx: Context, layer: "LayerMetrics", handle, queries,
               refs) -> None:
    """Traced runs of complete-zipf only: the top-K layer metrics.  The
    rank join is not on complete-zipf's path, so after its measured
    phase the same handle answers the Figure 9 frequency sweeps and the
    Figure 10 correlated sets through `search_topk(k=10)` with the
    default algorithm -- one untraced pass to warm the caches, then one
    traced pass on a recorder of its own (the workload's self times
    stay complete-zipf's).  Answers are checked like every other."""
    run_queries(ctx, handle, TOPK_OP, queries, refs, Pass())
    recorder = SpanRecorder()
    probe = Pass()
    settle()
    before = registry_totals(handle.metrics_snapshot())
    with Instrumentation(recorder).active():
        for qid, terms in enumerate(queries):
            run_query(ctx, handle, TOPK_OP, terms, refs[qid], probe,
                      recorder=recorder, qid=qid)
    after = registry_totals(handle.metrics_snapshot())
    rank_join = rate(
        delta(after, before, 'repro_phase_time_ms{phase="rank_join"}:sum'),
        delta(after, before, 'repro_query_latency_ms{op="topk"}:sum'))
    ctx.result.premise("rank join does most of the top-K probe's work",
                       rank_join >= MIN_RANK_JOIN_SHARE,
                       rank_join_share=rank_join,
                       minimum=MIN_RANK_JOIN_SHARE)
    layer.topk_work(probe.stats, len(queries))
    layer.engine_and_api(TOPK_OP, recorder)


def reference_complete(ctx: Context, db, queries) -> List:
    """complete-zipf references.  Every query: the join engine on the
    in-memory database built straight from the XML (no save, codec,
    lazy open or shared cache on its path).  That engine is itself
    checked against the stack-based baseline on an evenly spaced sample
    (all of them would cost ~40 s of set-up)."""
    refs = [complete_answer(db.search(list(q), use_cache=False))
            for q in queries]
    step = max(1, len(queries) // STACK_CHECKS)
    for i in range(0, len(queries), step):
        stack = complete_answer(db.search(list(queries[i]), algorithm="stack",
                                          use_cache=False))
        ctx.result.check(same_answer(stack, refs[i]),
                         f"reference {queries[i]}: join and stack differ")
    return refs


def put_latency(ctx: Context, passes: Sequence[Sequence[float]]) -> None:
    """Latency and throughput of a closed loop with one caller, from
    the measured passes over the query list: each query's latency is
    the best of its passes (`best_per_query`); throughput is queries
    per second of those latencies."""
    res = ctx.result
    best = best_per_query(passes)
    res.put("throughput_qps", len(best) / (sum(best) / 1000.0), "1/s")
    res.put("latency_p50_ms", median(best), "ms")
    res.put("latency_p95_ms", percentile(best, 95), "ms")
    res.details["latency_samples"] = sum(len(p) for p in passes)
    res.details["measured_passes"] = len(passes)
    res.premise("latency_p95_ms has 10 samples beyond it",
                p95_valid(len(best)), queries=len(best),
                minimum=P95_MIN_SAMPLES)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

def serve_workload(ctx: Context) -> None:
    res = ctx.result
    builder, tree, xml = make_inputs(ctx.seed)
    db_dir = ctx.path("db")
    ingest = Ingest(xml, db_dir, shards=2)
    db = ingest.db
    corpus_facts(ctx, len(tree), xml, db)
    put_ingest(ctx, ingest)
    del tree, builder
    ranked, df = corpus.vocabulary_by_df(db)
    requests = corpus.serve_requests(ranked, df, ctx.seed)
    # Reference: the unsharded in-memory database.
    refs = []
    for endpoint, terms in requests:
        if endpoint == "/search":
            refs.append(complete_answer(db.search(list(terms),
                                                  use_cache=False)))
        else:
            refs.append(topk_answer(db.search_topk(
                list(terms), k=corpus.TOPK_K).results))
    encode_s = encode_seconds(db) if ctx.trace else None
    ingest.db = db = None

    # The same requests through an in-process sharded database: the
    # engine time the daemon adds serving to.
    settle()
    start = time.perf_counter()
    facade = open_lazy(db_dir)
    open_s = time.perf_counter() - start
    decode: Dict[str, float] = {}
    if ctx.trace:
        # A second open, so the facade's first pass below stays cold.
        fresh = open_lazy(db_dir)
        decode = cold_decode([s.columnar_index for s in fresh.shards])
        fresh = None
    work: Dict[str, List] = {"cold": []}
    inproc_ms: List[float] = []
    # The engine time on a request's blocking path: the daemon's shard
    # workers run in parallel, so it is the slowest shard's own call.
    engine_ms: List[float] = []
    merge_ms: List[float] = []
    for warm in (False, True):
        for i, (endpoint, terms) in enumerate(requests):
            start = time.perf_counter()
            if endpoint == "/search":
                results, stats = facade.search(list(terms), use_cache=False,
                                               with_stats=True)
                answer = complete_answer(results)
            else:
                top = facade.search_topk(list(terms), k=corpus.TOPK_K)
                stats = top.stats
                answer = topk_answer(top.results)
            elapsed = (time.perf_counter() - start) * 1000.0
            res.check(same_answer(answer, refs[i]),
                      f"in-process sharded {endpoint} {terms}: differs")
            if not warm:
                work["cold"].append(work_units(stats))
                continue
            inproc_ms.append(elapsed)
            shard_ms = []
            for shard in facade.shards:
                s0 = time.perf_counter()
                if endpoint == "/search":
                    shard.search(list(terms), use_cache=False)
                else:
                    shard.search_topk(list(terms), k=corpus.TOPK_K)
                shard_ms.append((time.perf_counter() - s0) * 1000.0)
            engine_ms.append(max(shard_ms))
            if ctx.trace and endpoint == "/search":
                s0 = time.perf_counter()
                facade.search(list(terms), use_cache=False)
                merge_ms.append((time.perf_counter() - s0) * 1000.0
                                - sum(shard_ms))
    facade = None
    record_work_units(ctx, work)

    paths = [bench_serve.request_path(e, q) for e, q in requests]
    daemons: List[bench_serve.Daemon] = []
    try:
        # Each of the set-up daemons serves a share of the measured
        # window, in whole passes over the requests.  On a shared host
        # this multi-process path swings by tens of percent over tens of
        # seconds; three slices spread over the run average that out
        # better than one block at its end.
        setup_times = []
        cold_ms: List[float] = []
        samples: List = []
        chunks: List = []
        traced_samples: List = []
        rss = []
        before: Dict[str, float] = {}
        after: Dict[str, float] = {}
        for i in range(SETUP_REPEATS):
            daemon = bench_serve.Daemon(ctx.root, db_dir,
                                        ctx.path(f"daemon{i}.log"))
            daemons.append(daemon)
            setup_times.append(daemon.start())
            cold = bench_serve.drive(daemon, paths, passes=1)
            check_responses(res, cold, requests, refs)
            cold_ms.extend((s[2] - s[1]) * 1000.0 for s in cold)
            last = i == SETUP_REPEATS - 1
            start_metrics = bench_serve.metrics(daemon)
            if ctx.trace and last:
                got, traced_samples = serve_traced_passes(ctx, daemon,
                                                          paths)
            else:
                got = bench_serve.drive(daemon, paths,
                                        seconds=ctx.seconds / SETUP_REPEATS)
            end_metrics = bench_serve.metrics(daemon)
            for key, value in end_metrics.items():
                before[key] = before.get(key, 0.0) + \
                    start_metrics.get(key, 0.0)
                after[key] = after.get(key, 0.0) + value
            samples.extend(got)
            chunks.extend(split_passes(got, len(paths)))
            rss.append(process_tree_peak_rss_mb(daemon.proc.pid))
            if not (ctx.trace and last):
                daemon.stop()
        res.details["setup_samples_s"] = setup_times
        res.put("setup_s", median(setup_times), "s")
        res.put("cold_query_p50_ms", median(cold_ms), "ms")
        check_responses(res, samples, requests, refs)
        check_responses(res, traced_samples, requests, refs)
        round_trip = [(s[2] - s[1]) * 1000.0 for s in samples]
        put_latency(ctx, [[(s[2] - s[1]) * 1000.0 for s in c]
                          for c in chunks])
        res.put("rss_mb", median(rss), "MB")
        serving_share = 1.0 - rate(median(engine_ms), median(round_trip))
        res.premise("serving dominates the round trip",
                    serving_share >= MIN_SERVING_SHARE,
                    serving_share=serving_share,
                    slowest_shard_p50_ms=median(engine_ms),
                    inproc_p50_ms=median(inproc_ms),
                    round_trip_p50_ms=median(round_trip),
                    minimum=MIN_SERVING_SHARE)
        if ctx.trace:
            layer = LayerMetrics(ctx)
            layer.ingest(ingest, open_s, encode_s)
            layer.decode(decode)
            layer.serve(daemon, before, after, inproc_ms, merge_ms,
                        round_trip, got, traced_samples)
            daemon.stop()
            layer.tracing_overhead(ctx, db_dir, paths, round_trip)
            layer.finish()
    finally:
        for daemon in daemons:
            daemon.stop()


def check_responses(res: Result, samples, requests, refs) -> None:
    for index, _start, _end, status, body in samples:
        endpoint, terms = requests[index % len(requests)]
        if status != 200:
            res.check(False, f"{endpoint} {terms}: HTTP {status}")
            continue
        payload = json.loads(body)
        answer = (complete_answer_json(payload) if endpoint == "/search"
                  else topk_answer_json(payload))
        res.check(same_answer(answer, refs[index % len(requests)])
                  and not payload.get("partial")
                  and not payload.get("degraded"),
                  f"{endpoint} {terms}: answer differs from reference")


def serve_traced_passes(ctx: Context, daemon, paths):
    """Alternate untraced and traced passes over the requests.  A traced
    request's client span gets the daemon's own stitched trace (fetched
    after the reply, outside the timed interval) grafted under it."""
    rec = ctx.recorder

    def graft(conn, sample) -> None:
        index, start, end, status, body = sample
        root_id = rec.add(None, index, "request", UNATTRIBUTED, start, end)
        if status != 200:
            return
        trace = bench_serve.fetch_trace(conn, json.loads(body)["trace_id"])
        if trace is not None:
            graft_daemon_trace(rec, root_id, index, start, end, trace)

    untraced: List = []
    traced: List = []
    begin = time.perf_counter()
    while True:
        samples = bench_serve.drive(daemon, paths, passes=1)
        untraced.extend(samples)
        rec.enabled = True
        samples = bench_serve.drive(daemon, paths, passes=1, after=graft)
        rec.enabled = False
        traced.extend(samples)
        if time.perf_counter() - begin >= ctx.seconds:
            break
    return untraced, traced


# ---------------------------------------------------------------------------
# per-layer metrics (traced runs)
# ---------------------------------------------------------------------------

PER_LAYER_ZERO = (
    "algorithms.topk.search_ms", "algorithms.topk.retrievals",
    "algorithms.topk.useful_ratio", "algorithms.join.evaluate_ms",
    "algorithms.join.tuples_scanned", "algorithms.join.erasures",
    "api.topk_overhead_ms", "api.search_overhead_ms",
    "planner.index_join_share",
    "cache.postings_hit_ratio", "cache.postings_evictions",
    "cache.decoded_hit_ratio", "cache.decoded_bytes",
    "serve.http_floor_ms", "serve.inproc_ms", "serve.merge_ms",
    "serve.overhead_ms", "serve.queue_wait_ms", "serve.rejected",
    "obs.tracing_overhead_ms",
)


class LayerMetrics:
    """Fills the per-layer metric set.  A metric of a layer the workload
    does not exercise reads 0 (e.g. every `serve.*` metric in-process)."""

    UNITS = {
        "ingest_mb_s": "MB/s", "cold_query_p50_ms": "ms",
        "xmltree.parse_s": "s", "index.build_s": "s", "index.encode_s": "s",
        "index.decode_ms": "ms", "index.columns_decoded": "count",
        "index.bytes_decompressed": "bytes", "diskdb.save_s": "s",
        "diskdb.open_s": "s", "diskdb.bytes_written": "bytes",
        "cache.postings_hit_ratio": "ratio",
        "cache.postings_evictions": "count",
        "cache.decoded_hit_ratio": "ratio", "cache.decoded_bytes": "bytes",
        "planner.index_join_share": "ratio",
        "algorithms.topk.search_ms": "ms",
        "algorithms.topk.retrievals": "count",
        "algorithms.topk.useful_ratio": "ratio",
        "algorithms.join.evaluate_ms": "ms",
        "algorithms.join.tuples_scanned": "count",
        "algorithms.join.erasures": "count",
        "api.topk_overhead_ms": "ms", "api.search_overhead_ms": "ms",
        "serve.http_floor_ms": "ms", "serve.inproc_ms": "ms",
        "serve.merge_ms": "ms", "serve.overhead_ms": "ms",
        "serve.queue_wait_ms": "ms", "serve.rejected": "count",
        "obs.tracing_overhead_ms": "ms",
        "trace.unattributed_ms": "ms", "trace.unattributed_share": "ratio",
        "trace.overhead_pct": "%",
    }

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.res = ctx.result
        for name in PER_LAYER_ZERO:
            self.put(name, 0.0)

    def put(self, name: str, value: float) -> None:
        unit = self.UNITS.get(name, "ms")
        self.res.put(name, value, unit)

    def ingest(self, ingest: Ingest, open_s: float,
               encode_s: Optional[float]) -> None:
        self.put("xmltree.parse_s", ingest.parse_s)
        self.put("index.build_s", ingest.build_s)
        self.put("index.encode_s", encode_s or 0.0)
        self.put("diskdb.save_s", ingest.save_s)
        self.put("diskdb.open_s", open_s)
        self.put("diskdb.bytes_written", ingest.bytes_written)

    def decode(self, decode: Dict[str, float]) -> None:
        self.put("index.decode_ms", decode.get("decode_ms", 0.0))
        self.put("index.columns_decoded", decode.get("columns", 0))
        self.put("index.bytes_decompressed", decode.get("bytes", 0))

    def caches(self, before_p, after_p, before_d, after_d) -> None:
        hits = after_p["hits"] - before_p["hits"]
        misses = after_p["misses"] - before_p["misses"]
        self.put("cache.postings_hit_ratio", rate(hits, hits + misses))
        self.put("cache.postings_evictions",
                 after_p["evictions"] - before_p["evictions"])
        hits = after_d["hits"] - before_d["hits"]
        misses = after_d["misses"] - before_d["misses"]
        self.put("cache.decoded_hit_ratio", rate(hits, hits + misses))
        self.put("cache.decoded_bytes", after_d["bytes"])

    def join_work(self, stats: ExecutionStats, queries: int) -> None:
        """Work units per query of complete-zipf's measured passes."""
        n = max(1, queries)
        self.put("planner.index_join_share",
                 rate(stats.index_joins, stats.joins))
        self.put("algorithms.join.tuples_scanned", stats.tuples_scanned / n)
        self.put("algorithms.join.erasures", stats.erasures / n)

    def topk_work(self, stats: ExecutionStats, queries: int) -> None:
        """Work units per query of the top-K probe."""
        self.put("algorithms.topk.retrievals",
                 stats.tuples_scanned / max(1, queries))
        self.put("algorithms.topk.useful_ratio",
                 rate(stats.results_emitted, stats.tuples_scanned))

    def engine_and_api(self, op: QueryOp, recorder: SpanRecorder) -> None:
        """Mean engine time per query, and the facade call's time
        beyond it."""
        api = recorder.durations_ms(op.api_span)
        engine = recorder.durations_ms(op.engine_span)
        queries = [q for q in api if q >= 0]
        if not queries:
            return
        engine_mean = sum(engine.get(q, 0.0) for q in queries) / len(queries)
        api_over = sum(api[q] - engine.get(q, 0.0)
                       for q in queries) / len(queries)
        if op is TOPK_OP:
            self.put("algorithms.topk.search_ms", engine_mean)
            self.put("api.topk_overhead_ms", api_over)
        else:
            self.put("algorithms.join.evaluate_ms", engine_mean)
            self.put("api.search_overhead_ms", api_over)

    def trace_in_process(self, untraced: Pass, traced: Pass) -> None:
        self.engine_and_api(BATCH_OP, self.ctx.recorder)
        self.trace_units(len(traced.latencies_ms),
                         sum(untraced.latencies_ms))

    def trace_units(self, units: int, untraced_ms: float) -> None:
        """Self time per layer per traced query, the unattributed
        remainder, and the reconciliation against `untraced_ms`, the
        untraced time of as many queries."""
        per_layer, root_ms, _roots = self.ctx.recorder.self_times_ms()
        units = max(1, units)
        for layer in LAYERS:
            self.put(f"{layer}.self_ms", per_layer[layer] / units)
        self.put("trace.unattributed_ms", per_layer[UNATTRIBUTED] / units)
        self.put("trace.unattributed_share",
                 rate(per_layer[UNATTRIBUTED], root_ms))
        overhead = (root_ms / untraced_ms - 1.0) * 100.0 \
            if untraced_ms else 0.0
        self.put("trace.overhead_pct", overhead)
        attributed = sum(per_layer.values())
        self.res.details["trace"] = {
            "units": units, "root_ms": root_ms,
            "sum_of_self_ms": attributed, "untraced_ms": untraced_ms,
            "tolerance_pct": TRACE_TOLERANCE_PCT,
            "not_timed_layers": list(NOT_TIMED),
        }
        self.res.premise(
            "traced self times reconcile with the untraced time",
            abs(attributed - root_ms) <= 1e-6 * max(1.0, root_ms)
            and abs(overhead) <= TRACE_TOLERANCE_PCT,
            overhead_pct=overhead, tolerance_pct=TRACE_TOLERANCE_PCT)

    def serve(self, daemon, before, after, inproc_ms, merge_ms, round_trip,
              paired_untraced, traced_samples) -> None:
        """`paired_untraced` are the untraced passes that alternated with
        the traced ones on the same daemon."""
        conn = daemon.connect()
        try:
            floor = []
            for _ in range(50):
                start = time.perf_counter()
                bench_serve.get(conn, "/healthz")
                floor.append((time.perf_counter() - start) * 1000.0)
        finally:
            conn.close()
        self.put("serve.http_floor_ms", median(floor))
        self.put("serve.inproc_ms", median(inproc_ms))
        self.put("serve.merge_ms", median(merge_ms) if merge_ms else 0.0)
        self.put("serve.overhead_ms", median(round_trip) - median(inproc_ms))
        waits = delta(after, before, "repro_serve_queue_wait_ms_count")
        self.put("serve.queue_wait_ms", rate(
            delta(after, before, "repro_serve_queue_wait_ms_sum"), waits))
        self.put("serve.rejected",
                 prom_sum(after, "repro_serve_rejects_total")
                 - prom_sum(before, "repro_serve_rejects_total"))
        for cache in ("postings", "decoded"):
            series = f'repro_worker_cache_requests_total{{cache="{cache}"'
            hits = prom_sum(after, series + ',outcome="hit"') \
                - prom_sum(before, series + ',outcome="hit"')
            total = prom_sum(after, series) - prom_sum(before, series)
            self.put(f"cache.{cache}_hit_ratio", rate(hits, total))
        n = len(traced_samples)
        self.trace_units(n, mean([(s[2] - s[1]) * 1000.0
                                  for s in paired_untraced]) * n)

    def tracing_overhead(self, ctx: Context, db_dir: str, paths,
                         round_trip: Sequence[float]) -> None:
        """Same requests against a ``--no-tracing`` daemon: the default
        daemon's p50 minus this one's."""
        daemon = bench_serve.Daemon(ctx.root, db_dir,
                                    ctx.path("daemon-notrace.log"),
                                    tracing=False)
        try:
            daemon.start()
            bench_serve.drive(daemon, paths, passes=1)
            samples = bench_serve.drive(daemon, paths,
                                        passes=NO_TRACING_PASSES)
        finally:
            daemon.stop()
        plain = median([(s[2] - s[1]) * 1000.0 for s in samples])
        self.put("obs.tracing_overhead_ms", median(round_trip) - plain)

    def finish(self) -> None:
        for layer in LAYERS:
            self.res.metrics.setdefault(f"{layer}.self_ms", (0.0, "ms"))
        path = os.path.join(self.ctx.root, ".perfbench", "runs",
                            f"{self.ctx.workload}-seed{self.ctx.seed}"
                            "-spans.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.ctx.recorder.write(path)
        self.res.details["spans_file"] = os.path.relpath(path, self.ctx.root)


WORKLOADS = {
    "complete-zipf": zipf_workload,
    "serve-mixed": serve_workload,
}
