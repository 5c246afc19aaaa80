"""Disk-resident columnar lists with per-column lazy decompression.

The paper stores inverted lists vertically precisely so that query
evaluation touches one column at a time: "the algorithm does not read
the whole JDewey sequences from the disk at once ... this would save
disk I/O when the XML tree is deep and some keywords only appear at
high levels" (section III-B).

`LazyColumnarPostings` keeps each level's *compressed* payload and
decompresses a column only on first access; `IOStats` counts the
columns and bytes actually touched, which is the currency of the
section III-B claim (asserted in the lazy-I/O ablation benchmark).
`LazyColumnarIndex` serves a whole vocabulary from one serialized blob
(the format written by `storage.serialize_columnar_index`), parsing
per-term payloads up front but deferring all decompression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.account import active_account
from ..obs.profiler import profile_phase
from ..reliability.deadline import check_active
from ..reliability.errors import DatabaseCorruptError, DatabaseFormatError
from ..scoring.ranking import RankingModel
from ..xmltree.tree import Node, XMLTree
from .columnar import Column, ColumnarPostings, NodeTable
from .compression import decompress_column, read_varint
from .storage import (_MAGIC_COLUMNAR, _MAGIC_COLUMNAR_BLOCKED,
                      _MAGIC_COLUMNAR_V3, _MAGIC_COLUMNAR_V4,
                      _PARSE_ERRORS, BlockRef, parse_v3_payload,
                      parse_v4_payload, scan_blocked_container,
                      scan_v3_container, scan_v4_container, verify_block)
from .tokenizer import Tokenizer


@dataclass
class IOStats:
    """Columns and bytes decompressed since construction / reset."""

    columns_read: int = 0
    compressed_bytes_read: int = 0
    per_level: Dict[int, int] = field(default_factory=dict)

    def record(self, level: int, payload_size: int) -> None:
        self.columns_read += 1
        self.compressed_bytes_read += payload_size
        self.per_level[level] = self.per_level.get(level, 0) + 1

    def reset(self) -> None:
        self.columns_read = 0
        self.compressed_bytes_read = 0
        self.per_level.clear()


class LazyColumnarPostings(ColumnarPostings):
    """One term's columnar list backed by compressed per-level payloads.

    Columns decompress on first access and are cached; the sequence-of-
    tuples view (`seqs`) is never materialized -- callers that need a
    number use `value_at`, which resolves through the column.
    """

    def __init__(self, term: str, lengths: Sequence[int],
                 level_payloads: List[Tuple[str, bytes]],
                 scores: Sequence[float],
                 io_stats: Optional[IOStats] = None,
                 vectorized: bool = True, metrics=None,
                 decoded_cache=None, cache_ns: str = ""):
        # Deliberately *not* calling super().__init__: the whole point
        # is to avoid building `seqs`.  When backed by a format-v3 mmap
        # the lengths/scores/payload buffers are read-only numpy views
        # into the mapping; `np.asarray` keeps them view-shaped.
        self.term = term
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.max_len = int(self.lengths.max()) if len(self.lengths) else 0
        self._level_payloads = level_payloads
        self._columns: Dict[int, Column] = {}
        self.io = io_stats if io_stats is not None else IOStats()
        self.vectorized = vectorized
        self.metrics = metrics
        # Optional shared `cache.DecodedColumnCache`.  When present it
        # replaces the unbounded per-postings `_columns` dict for the
        # payload-bearing levels: decoded columns live in one bounded
        # LRU keyed (namespace, term, level) instead of being pinned
        # here forever.  Empty columns (level > max_len) stay local --
        # they cost nothing and need no eviction.
        self._decoded_cache = decoded_cache
        self._cache_ns = cache_ns

    @property
    def seqs(self):
        raise NotImplementedError(
            "disk-backed postings do not materialize sequences; use "
            "column(level) / value_at(ordinal, level)")

    def __len__(self) -> int:
        return len(self.lengths)

    def column(self, level: int) -> Column:
        if level < 1:
            raise ValueError("levels are 1-based")
        cached = self._columns.get(level)
        if cached is not None:
            return cached
        shared = (self._decoded_cache
                  if self._decoded_cache is not None
                  and level <= self.max_len else None)
        if shared is not None:
            key = (self._cache_ns, self.term, level)
            hit = shared.get(key)
            if hit is not None:
                account = active_account()
                if account is not None:
                    account.record_decode_cache(
                        True,
                        int(hit.values.nbytes) + int(hit.seq_idx.nbytes))
                return hit
        mask = self.lengths >= level
        seq_idx = np.nonzero(mask)[0].astype(np.int64)
        if level > self.max_len:
            values = np.empty(0, dtype=np.int64)
        else:
            # The lazy index's "disk read": poll the scoped deadline at
            # every posting fetch, so a budgeted query cannot stall
            # inside a long decompression chain (a getattr + None test
            # when no deadline is active).
            check_active()
            scheme, payload = self._level_payloads[level - 1]
            self.io.record(level, len(payload))
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_decode_bytes_total",
                    {"decoder": "vectorized" if self.vectorized
                     else "scalar"}).inc(len(payload))
            with profile_phase("decompress"):
                values = decompress_column(scheme, payload,
                                           vectorized=self.vectorized)
            account = active_account()
            if account is not None:
                # v3 payloads are zero-copy views (numpy/memoryview
                # over the mmap); v1/v2 payloads are bytes copies.
                account.record_column(
                    level, scheme, len(payload), int(values.nbytes),
                    len(values),
                    not isinstance(payload, (bytes, bytearray)))
        column = Column(level, values, seq_idx)
        if shared is not None:
            nbytes = int(values.nbytes) + int(seq_idx.nbytes)
            account = active_account()
            if account is not None:
                account.record_decode_cache(False, nbytes)
            shared.put(key, column, nbytes)
        else:
            self._columns[level] = column
        return column

    def value_at(self, ordinal: int, level: int) -> int:
        column = self.column(level)
        pos = int(np.searchsorted(column.seq_idx, ordinal))
        return int(column.values[pos])


def parse_lazy_postings(data: bytes, pos: int = 0,
                        io_stats: Optional[IOStats] = None,
                        vectorized: bool = True, metrics=None,
                        decoded_cache=None, cache_ns: str = ""
                        ) -> Tuple[LazyColumnarPostings, int]:
    """Parse one term written by `storage.serialize_columnar_postings`,
    keeping the column payloads compressed."""
    term_len, pos = read_varint(data, pos)
    term = data[pos: pos + term_len].decode("utf-8")
    pos += term_len
    n_seqs, pos = read_varint(data, pos)
    max_len, pos = read_varint(data, pos)
    score_mode = data[pos]
    pos += 1
    lengths: List[int] = []
    for _ in range(n_seqs):
        length, pos = read_varint(data, pos)
        lengths.append(length)
    payloads: List[Tuple[str, bytes]] = []
    for _level in range(1, max_len + 1):
        scheme = "rle" if data[pos] == 0 else "delta"
        pos += 1
        payload_len, pos = read_varint(data, pos)
        payloads.append((scheme, data[pos: pos + payload_len]))
        pos += payload_len
    if score_mode == 1:
        raw = np.frombuffer(data, dtype=np.uint16, count=n_seqs, offset=pos)
        pos += 2 * n_seqs
        scores = raw.astype(np.float64) / 256.0
    elif score_mode == 2:
        scores = np.frombuffer(data, dtype=np.float64, count=n_seqs,
                               offset=pos).copy()
        pos += 8 * n_seqs
    elif score_mode == 0:
        scores = np.zeros(n_seqs, dtype=np.float64)
    else:
        raise ValueError(f"unknown score mode {score_mode}")
    return LazyColumnarPostings(term, lengths, payloads, scores,
                                io_stats, vectorized=vectorized,
                                metrics=metrics,
                                decoded_cache=decoded_cache,
                                cache_ns=cache_ns), pos


def parse_lazy_postings_v3(term: str, payload,
                           io_stats: Optional[IOStats] = None,
                           vectorized: bool = True, metrics=None,
                           file: Optional[str] = None,
                           decoded_cache=None, cache_ns: str = ""
                           ) -> LazyColumnarPostings:
    """Wrap one format-v3 payload (a memoryview slice of the mmap) as
    lazy postings whose lengths/scores/columns are zero-copy views."""
    lengths, scores, level_payloads = parse_v3_payload(term, payload,
                                                       file=file)
    return LazyColumnarPostings(term, lengths, level_payloads, scores,
                                io_stats, vectorized=vectorized,
                                metrics=metrics,
                                decoded_cache=decoded_cache,
                                cache_ns=cache_ns)


def parse_lazy_postings_v4(term: str, payload,
                           io_stats: Optional[IOStats] = None,
                           vectorized: bool = True, metrics=None,
                           file: Optional[str] = None,
                           decoded_cache=None, cache_ns: str = ""
                           ) -> LazyColumnarPostings:
    """Wrap one format-v4 payload as zero-copy lazy postings."""
    lengths, scores, level_payloads = parse_v4_payload(term, payload,
                                                       file=file)
    return LazyColumnarPostings(term, lengths, level_payloads, scores,
                                io_stats, vectorized=vectorized,
                                metrics=metrics,
                                decoded_cache=decoded_cache,
                                cache_ns=cache_ns)


class LazyColumnarIndex:
    """A `ColumnarIndex`-compatible view over one serialized blob.

    Per-term *framing* is parsed eagerly (cheap varint walk); column
    payloads stay compressed until a query touches them.  One shared
    `IOStats` instrument records every decompression.

    Accepts the bare v1 blob (``JDXC``), the checksummed blocked v2
    container (``JDXB``) and the aligned v3/v4 containers (``JDX3`` /
    ``JDX4``) -- the latter usually as a `reliability.io.MappedFile`,
    in which case every column materializes as a zero-copy view over
    the mapping.
    For v2/v3 the ``verify`` mode controls when block checksums are
    checked:

    * ``"lazy"`` (default) -- on a term's first touch, right before its
      payload is parsed.  Matches the lazy-I/O design: a query only
      pays for the integrity of the bytes it actually reads.
    * ``"eager"`` -- every block at construction (column payloads still
      decompress lazily).
    * ``"off"``  -- never (benchmarking / recovery tooling).

    A failed check raises `DatabaseCorruptError` naming the source file
    and the offending keyword, and bumps
    ``repro_checksum_failures_total{file=...}`` when a metrics registry
    is wired in.
    """

    def __init__(self, blob, tree: XMLTree,
                 tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None,
                 verify: str = "lazy", source: Optional[str] = None,
                 metrics=None, vectorized: bool = True,
                 decoded_cache=None):
        if verify not in ("lazy", "eager", "off"):
            raise ValueError(f"unknown verify mode {verify!r}; "
                             "one of ('lazy', 'eager', 'off')")
        self.tree = tree
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self.io = IOStats()
        self.verify = verify
        self.source = source
        self.metrics = metrics
        self.vectorized = vectorized
        # Shared decoded-column cache (see `cache.DecodedColumnCache`).
        # The namespace keeps keys distinct when one cache serves
        # several indexes (e.g. the shards of one database).
        self._decoded_cache = decoded_cache
        self._cache_ns = source if source else f"idx-{id(self):x}"
        # `blob` may be bytes or a `reliability.io.MappedFile`; holding
        # the backing object here is what keeps the mmap (and every
        # numpy view into it) alive for the index's lifetime.
        self._backing = blob
        self._blob = blob.view if hasattr(blob, "view") else blob
        self._postings: Dict[str, LazyColumnarPostings] = {}
        self._blocks: Dict[str, BlockRef] = {}
        self._algorithm: Optional[str] = None
        self._format = 0
        magic = bytes(self._blob[:4])
        if magic == _MAGIC_COLUMNAR:
            blob = self._blob
            pos = 4
            n_terms, pos = read_varint(blob, pos)
            for _ in range(n_terms):
                postings, pos = parse_lazy_postings(
                    blob, pos, self.io, vectorized=vectorized,
                    metrics=metrics, decoded_cache=decoded_cache,
                    cache_ns=self._cache_ns)
                self._postings[postings.term] = postings
        elif magic == _MAGIC_COLUMNAR_BLOCKED:
            self._format = 2
            self._algorithm, refs = scan_blocked_container(
                self._blob, _MAGIC_COLUMNAR_BLOCKED, file=source)
            self._blocks = {ref.term: ref for ref in refs}
            if verify == "eager":
                for term in list(self._blocks):
                    self._parse_block(term)
        elif magic == _MAGIC_COLUMNAR_V3:
            self._format = 3
            self._algorithm, refs = scan_v3_container(
                self._blob, file=source)
            self._blocks = {ref.term: ref for ref in refs}
            if verify == "eager":
                for term in list(self._blocks):
                    self._parse_block(term)
        elif magic == _MAGIC_COLUMNAR_V4:
            self._format = 4
            self._algorithm, refs = scan_v4_container(
                self._blob, file=source)
            self._blocks = {ref.term: ref for ref in refs}
            if verify == "eager":
                for term in list(self._blocks):
                    self._parse_block(term)
        else:
            raise DatabaseFormatError(
                f"not a columnar index blob (magic {magic!r})"
                + (f" in {source}" if source else ""))
        self._node_table = NodeTable(tree)
        self.n_docs = 0

    def _parse_block(self, term: str) -> LazyColumnarPostings:
        """Verify (per the mode) and parse one block on first touch.

        For a v3 container the payload slice stays a memoryview of the
        mmap and the postings' columns become `np.frombuffer` views --
        no bytes copy happens here or later.
        """
        ref = self._blocks.pop(term)
        try:
            if self.verify != "off":
                payload = verify_block(self._blob, ref, self._algorithm,
                                       file=self.source)
            else:
                payload = self._blob[ref.offset: ref.offset + ref.length]
            if self._format == 4:
                postings = parse_lazy_postings_v4(
                    term, payload, self.io, vectorized=self.vectorized,
                    metrics=self.metrics, file=self.source,
                    decoded_cache=self._decoded_cache,
                    cache_ns=self._cache_ns)
            elif self._format == 3:
                postings = parse_lazy_postings_v3(
                    term, payload, self.io, vectorized=self.vectorized,
                    metrics=self.metrics, file=self.source,
                    decoded_cache=self._decoded_cache,
                    cache_ns=self._cache_ns)
            else:
                postings, _ = parse_lazy_postings(
                    payload, 0, self.io, vectorized=self.vectorized,
                    metrics=self.metrics,
                    decoded_cache=self._decoded_cache,
                    cache_ns=self._cache_ns)
        except DatabaseCorruptError:
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_checksum_failures_total",
                    {"file": self.source or "columnar"}).inc()
            raise
        except _PARSE_ERRORS as exc:
            raise DatabaseCorruptError(
                f"postings for term {term!r} do not parse: {exc}",
                file=self.source, term=term) from exc
        self._postings[term] = postings
        return postings

    @property
    def vocabulary(self) -> List[str]:
        return sorted(set(self._postings) | set(self._blocks))

    def __contains__(self, term: str) -> bool:
        return term in self._postings or term in self._blocks

    def term_postings(self, term: str):
        existing = self._postings.get(term)
        if existing is not None:
            return existing
        if term in self._blocks:
            return self._parse_block(term)
        return LazyColumnarPostings(term, [], [], [], self.io)

    def document_frequency(self, term: str) -> int:
        return len(self.term_postings(term))

    def query_postings(self, terms: Sequence[str]):
        postings = [self.term_postings(t) for t in terms]
        postings.sort(key=len)
        return postings

    def node_at(self, level: int, number: int) -> Node:
        return self._node_table.node_at(level, number)

    def nodes_at(self, level: int, numbers: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        return self._node_table.nodes_at(level, numbers)
