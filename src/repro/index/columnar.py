"""Column-oriented JDewey inverted index (paper sections III-A/III-B).

Each term's occurrences are kept as JDewey sequences sorted in JDewey
order; column ``l`` holds the ``l``-th component of every sequence of
length >= ``l``.  Property 3.1 makes every column sorted, so runs of the
same number are contiguous -- the run view *is* the second compression
scheme of section III-D, and the join algorithms operate directly on the
distinct-value arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..scoring.ranking import RankingModel
from ..xmltree.jdewey import JDeweySeq
from ..xmltree.tree import Node, XMLTree
from .tokenizer import Tokenizer


class Column:
    """One level of one term's inverted list.

    Attributes
    ----------
    values:
        Sorted JDewey numbers, one entry per sequence of length >= level.
    seq_idx:
        For each entry, the ordinal of its sequence in the owning
        `ColumnarPostings.seqs` (used for erasure bookkeeping).
    distinct / run_starts:
        Run-length view: ``values[run_starts[i]:run_starts[i+1]]`` all
        equal ``distinct[i]``.  This mirrors the (v, r, c) triples of
        section III-D.
    """

    __slots__ = ("level", "values", "seq_idx", "distinct", "run_starts")

    def __init__(self, level: int, values: np.ndarray, seq_idx: np.ndarray):
        self.level = level
        self.values = values
        self.seq_idx = seq_idx
        if len(values):
            distinct, starts = np.unique(values, return_index=True)
        else:
            distinct = np.empty(0, dtype=np.int64)
            starts = np.empty(0, dtype=np.int64)
        self.distinct = distinct
        self.run_starts = np.append(starts, len(values)).astype(np.int64)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)

    def run_of(self, value: int) -> Tuple[int, int]:
        """Position range [a, b) of `value` inside `values` (empty if absent)."""
        i = int(np.searchsorted(self.distinct, value))
        if i >= len(self.distinct) or self.distinct[i] != value:
            return 0, 0
        return int(self.run_starts[i]), int(self.run_starts[i + 1])

    def runs_of(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk `run_of`: (lows, highs) position ranges for `values`.

        Every value must be present in `distinct` (join outputs always
        are -- they come from intersecting distinct arrays); absent
        values would silently alias a neighbouring run.
        """
        idx = np.searchsorted(self.distinct, values)
        return self.run_starts[idx], self.run_starts[idx + 1]

    def ordinal_spans(self, lows: np.ndarray, highs: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Sequence-ordinal spans [lo, hi) covering each run [a, b).

        The span is the erasure currency of section III-E: it includes
        ordinals of shorter sequences interleaved within the run, which
        is exactly the range rule ("all the sequences within A_k").
        Runs must be non-empty.
        """
        return self.seq_idx[lows], self.seq_idx[highs - 1] + 1

    def run_seq_indices(self, value: int) -> np.ndarray:
        """Sequence ordinals of the run for `value`."""
        a, b = self.run_of(value)
        return self.seq_idx[a:b]

    def contains(self, value: int) -> bool:
        a, b = self.run_of(value)
        return b > a


class ColumnarPostings:
    """All occurrences of one term in the columnar encoding.

    ``seqs`` is sorted in JDewey order; ``scores[i]`` is the local score
    ``g`` of occurrence ``seqs[i]``; ``lengths[i] == len(seqs[i])`` is the
    occurrence's level.  Columns are materialized lazily and cached.
    """

    def __init__(self, term: str, seqs: List[JDeweySeq],
                 scores: Sequence[float]):
        order = sorted(range(len(seqs)), key=lambda i: seqs[i])
        self.term = term
        self.seqs: List[JDeweySeq] = [seqs[i] for i in order]
        self.scores = np.asarray([scores[i] for i in order], dtype=np.float64)
        self.lengths = np.asarray([len(s) for s in self.seqs], dtype=np.int64)
        self.max_len = int(self.lengths.max()) if len(self.seqs) else 0
        self._columns: Dict[int, Column] = {}

    def __len__(self) -> int:
        return len(self.seqs)

    def column(self, level: int) -> Column:
        """The column for `level` (1-based); empty beyond `max_len`."""
        if level < 1:
            raise ValueError("levels are 1-based")
        cached = self._columns.get(level)
        if cached is not None:
            return cached
        mask = self.lengths >= level
        seq_idx = np.nonzero(mask)[0].astype(np.int64)
        values = np.asarray([self.seqs[i][level - 1] for i in seq_idx],
                            dtype=np.int64)
        column = Column(level, values, seq_idx)
        self._columns[level] = column
        return column

    def value_at(self, ordinal: int, level: int) -> int:
        """JDewey number of sequence `ordinal` at `level`.

        The base class reads the materialized sequence; the lazy
        disk-backed subclass resolves it from the column instead, so
        cursors never force full sequences into memory.
        """
        return int(self.seqs[ordinal][level - 1])

    def has_exact_length(self, level: int) -> bool:
        """True iff some occurrence sits exactly at `level`.

        Used by the top-K level-skipping rule (section IV-C): a column
        whose scores are all damped copies of the column below cannot
        raise the threshold.
        """
        return bool(np.any(self.lengths == level))

    def max_score(self) -> float:
        return float(self.scores.max()) if len(self.scores) else 0.0


class NodeTable:
    """Dense per-level node table: ``(level, JDewey number) -> node``.

    A JDewey number plus its level uniquely identifies a node (the
    representational advantage section III-A highlights), and a freshly
    encoded tree hands out the numbers of each level densely from 1, so
    each level is one object array indexed by number, beside an int64
    array of every node's document-order position.  Numbers never handed
    out (gap slots reserved for inserts) hold ``None`` and ``-1``.
    """

    __slots__ = ("_nodes", "_positions")

    def __init__(self, tree: XMLTree):
        numbers: Dict[int, List[int]] = {}
        nodes: Dict[int, List[Node]] = {}
        positions: Dict[int, List[int]] = {}
        for position, node in enumerate(tree.iter_document_order()):
            level = node.level
            if level not in numbers:
                numbers[level], nodes[level], positions[level] = [], [], []
            numbers[level].append(node.jdewey[-1])
            nodes[level].append(node)
            positions[level].append(position)
        depth = max(numbers, default=0)
        self._nodes: List[np.ndarray] = [np.empty(0, dtype=object)] * (
            depth + 1)
        self._positions: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * (
            depth + 1)
        for level, level_numbers in numbers.items():
            idx = np.asarray(level_numbers, dtype=np.int64)
            size = int(idx.max()) + 1
            table = np.empty(size, dtype=object)
            table[idx] = nodes[level]
            order = np.full(size, -1, dtype=np.int64)
            order[idx] = positions[level]
            self._nodes[level] = table
            self._positions[level] = order

    def node_at(self, level: int, number: int) -> Node:
        """The node at (level, number); `KeyError` if there is none."""
        if 0 < level < len(self._nodes):
            table = self._nodes[level]
            if 0 <= number < len(table):
                node = table[number]
                if node is not None:
                    return node
        raise KeyError((level, number))

    def nodes_at(self, level: int, numbers: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk `node_at`: (nodes, document-order positions) of `numbers`.

        One fancy-index per array.  Every number must name a node (join
        outputs always do -- they come from the postings of this tree).
        """
        return self._nodes[level][numbers], self._positions[level][numbers]


class ColumnarIndex:
    """JDewey columnar inverted index over one document.

    Also owns the `NodeTable` used to materialize results.
    """

    def __init__(self, tree: XMLTree, tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None):
        if not tree.frozen:
            raise ValueError("index a frozen tree")
        root_jdewey = tree.root.jdewey
        if not root_jdewey:
            raise ValueError("assign JDewey numbers before indexing "
                             "(repro.xmltree.encode_tree)")
        self.tree = tree
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self._postings: Dict[str, ColumnarPostings] = {}
        self._node_table = NodeTable(tree)
        self.n_docs = 0
        self._build()

    @classmethod
    def from_postings(cls, tree: XMLTree,
                      postings: Dict[str, ColumnarPostings],
                      tokenizer: Optional[Tokenizer] = None,
                      ranking: Optional[RankingModel] = None,
                      n_docs: int = 0) -> "ColumnarIndex":
        """Wrap pre-built per-term postings (the persistence load path).

        The tree must carry the same JDewey numbering the postings were
        built against (re-encoding a saved document with the same gap is
        deterministic); only the node table is rebuilt.
        """
        index = cls.__new__(cls)
        index.tree = tree
        index.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        index.ranking = ranking if ranking is not None else RankingModel()
        index._postings = dict(postings)
        index._node_table = NodeTable(tree)
        index.n_docs = n_docs
        return index

    def _build(self) -> None:
        raw: Dict[str, List[Tuple[JDeweySeq, int, int]]] = {}
        for node in self.tree.iter_document_order():
            if not node.text:
                continue
            counts = self.tokenizer.term_frequencies(node.text)
            if not counts:
                continue
            self.n_docs += 1
            node_tokens = sum(counts.values())
            for term, tf in counts.items():
                raw.setdefault(term, []).append((node.jdewey, tf, node_tokens))
        for term, entries in raw.items():
            df = len(entries)
            seqs = [seq for seq, _, _ in entries]
            scores = [
                self.ranking.scorer.score(tf, df, self.n_docs, ntok)
                for _, tf, ntok in entries
            ]
            self._postings[term] = ColumnarPostings(term, seqs, scores)

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    @property
    def vocabulary(self) -> List[str]:
        return sorted(self._postings)

    def term_postings(self, term: str) -> ColumnarPostings:
        existing = self._postings.get(term)
        if existing is not None:
            return existing
        return ColumnarPostings(term, [], [])

    def document_frequency(self, term: str) -> int:
        return len(self.term_postings(term))

    def query_postings(self, terms: Sequence[str]) -> List[ColumnarPostings]:
        """Per-term postings ordered shortest first (left-deep join order)."""
        postings = [self.term_postings(t) for t in terms]
        postings.sort(key=len)
        return postings

    def node_at(self, level: int, number: int) -> Node:
        """Materialize the node identified by (level, JDewey number)."""
        return self._node_table.node_at(level, number)

    def nodes_at(self, level: int, numbers: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk `node_at`: the nodes and their document-order positions."""
        return self._node_table.nodes_at(level, numbers)
