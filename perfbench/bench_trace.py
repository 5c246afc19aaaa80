"""The traced run's span recorder.

Spans are recorded by this benchmark's own code around calls into the
`repro` layers -- nothing inside `src/` changes.  `Instrumentation`
swaps a layer's public entry points for timing wrappers for the length
of one traced pass and restores them afterwards, so the untraced passes
it is compared with run the unmodified program.

A span is ``(id, parent, query, name, layer, start, end)``; spans stay
in memory and `SpanRecorder.write` dumps them as JSONL when the run
ends.  A layer's self time is its spans' durations minus the part their
child spans cover.  The root span of each query belongs to no layer:
its self time is the *unattributed* remainder (the benchmark's own call
overhead, and for HTTP the client and transport), reported on its own.

`scoring` and `reliability` run inside the engine's calls and expose no
entry point that can be timed from outside, so their time is part of
the self time of the layer that calls them (`algorithms`, `index`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("xmltree", "index", "diskdb", "cache", "planner", "algorithms",
          "api", "serve", "obs")
UNATTRIBUTED = "unattributed"
NOT_TIMED = ("scoring", "reliability")

Span = Tuple[int, Optional[int], int, str, str, float, float]


class SpanRecorder:
    """Thread-aware in-memory span store."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.enabled = False

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def root(self, query_id: int, name: str):
        """The per-query root span; layer spans only record inside one.
        Records nothing while the recorder is disabled."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        frame = [self._new_id(), None, query_id, name, UNATTRIBUTED,
                 time.perf_counter()]
        stack.append(frame)
        try:
            yield frame
        finally:
            stack.pop()
            self._close(frame, time.perf_counter())

    def _close(self, frame: list, end: float) -> None:
        span = (frame[0], frame[1], frame[2], frame[3], frame[4], frame[5],
                end)
        with self._lock:
            self.spans.append(span)

    def call(self, fn: Callable, name: str, layer: str, args, kwargs):
        stack = self._stack()
        if not self.enabled or not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        frame = [self._new_id(), parent[0], parent[2], name, layer,
                 time.perf_counter()]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._close(frame, end)

    def add(self, parent_id: Optional[int], query_id: int, name: str,
            layer: str,
            start: float, end: float) -> int:
        """Record an already-measured span (the daemon's own trace
        spans, grafted under the client request)."""
        span_id = self._new_id()
        with self._lock:
            self.spans.append((span_id, parent_id, query_id, name, layer,
                               start, end))
        return span_id

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, qid, name, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "query": qid,
                    "name": name, "layer": layer,
                    "start_ms": start * 1000.0, "end_ms": end * 1000.0,
                }) + "\n")

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times_ms(self) -> Tuple[Dict[str, float], float, int]:
        """Total self time per layer (the roots' self time under
        ``unattributed``), the total root time, and the root count."""
        child_ms: Dict[int, float] = {}
        for _sid, parent, _q, _n, _l, start, end in self.spans:
            if parent is not None:
                child_ms[parent] = child_ms.get(parent, 0.0) + \
                    (end - start) * 1000.0
        per_layer = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)}
        root_ms = 0.0
        roots = 0
        for sid, parent, _q, _n, layer, start, end in self.spans:
            duration = (end - start) * 1000.0
            per_layer[layer] = per_layer.get(layer, 0.0) + \
                duration - child_ms.get(sid, 0.0)
            if parent is None:
                root_ms += duration
                roots += 1
        return per_layer, root_ms, roots

    def durations_ms(self, name: str) -> Dict[int, float]:
        """Inclusive time of every span called `name`, summed per query."""
        out: Dict[int, float] = {}
        for _sid, _p, qid, span_name, _l, start, end in self.spans:
            if span_name == name:
                out[qid] = out.get(qid, 0.0) + (end - start) * 1000.0
        return out


class Instrumentation:
    """Installs span wrappers on the layers' entry points for one traced
    pass; `remove` puts the originals back."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(original, name, layer, args, kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from repro import api
        from repro.algorithms.join_based import JoinBasedSearch
        from repro.algorithms.topk_keyword import TopKKeywordSearch
        from repro.cache import QueryCache
        from repro.index import lazydisk
        from repro.planner.plans import JoinPlanner

        db_cls = api.XMLDatabase
        for attr in ("search", "search_topk", "search_batch"):
            self._wrap(db_cls, attr, f"XMLDatabase.{attr}", "api")
        self._wrap(db_cls, "_record_query", "XMLDatabase._record_query",
                   "obs")
        self._wrap(JoinBasedSearch, "evaluate", "JoinBasedSearch.evaluate",
                   "algorithms")
        self._wrap(TopKKeywordSearch, "search", "TopKKeywordSearch.search",
                   "algorithms")
        self._wrap(JoinPlanner, "intersect_all", "JoinPlanner.intersect_all",
                   "planner")
        self._wrap(QueryCache, "query_postings", "QueryCache.query_postings",
                   "cache")
        self._wrap(lazydisk.LazyColumnarIndex, "term_postings",
                   "LazyColumnarIndex.term_postings", "index")
        self._wrap(lazydisk, "decompress_column", "decompress_column",
                   "index")
        self.recorder.enabled = True

    def remove(self) -> None:
        self.recorder.enabled = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.remove()


# Daemon trace span names (`repro.obs.distributed.stitch_trace` plus the
# shard workers' engine spans) by layer.
DAEMON_SPAN_LAYERS = {
    "request": "serve", "queue_wait": "serve", "scatter": "serve",
    "shard": "serve", "merge": "serve", "cache_hit": "serve",
    "shard_query": "serve",
    "query": "api", "parse": "api", "cache_lookup": "cache",
    "postings_fetch": "cache", "join": "planner", "erase": "algorithms",
    "rank_join": "algorithms", "score": "algorithms",
    "topk_termination": "algorithms",
}


def graft_daemon_trace(recorder: SpanRecorder, root_id: int, query_id: int,
                       client_start: float, client_end: float,
                       trace: Dict) -> None:
    """Add a stitched daemon trace under the client's request span.

    The daemon reports offsets from its own request start; its request
    span is centred inside the client round trip (the two clocks are not
    shared), which leaves self times exact whatever the alignment.  Of
    the shards a scatter waits for in parallel only the slowest -- the
    one on the blocking path -- is kept, so self times still add up to
    the request's round trip."""
    root = trace.get("root", trace)
    elapsed = float(root.get("duration_ms", 0.0)) / 1000.0
    offset = client_start + max(0.0, (client_end - client_start - elapsed)
                                / 2.0)

    def walk(span: Dict, parent_id: int, parent_layer: str,
             base: float) -> None:
        name = span.get("name", "?")
        layer = DAEMON_SPAN_LAYERS.get(name, parent_layer)
        start = base + float(span.get("start_ms", 0.0)) / 1000.0
        end = start + float(span.get("duration_ms", 0.0)) / 1000.0
        sid = recorder.add(parent_id, query_id, f"daemon.{name}", layer,
                           start, end)
        children = span.get("children", [])
        if name == "scatter" and children:
            children = [max(children,
                            key=lambda c: float(c.get("duration_ms", 0.0)))]
        for child in children:
            walk(child, sid, layer, base)

    walk(root, root_id, "serve", offset)
