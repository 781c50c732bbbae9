"""Sparse and dense retrieval over an in-memory corpus.

Sparse search is Okapi BM25: a Bm25Retriever computes every (term,
document) weight once, when it is made, and keeps them in its own flat CSR
arrays.  Dense search is cosine similarity over one matrix of externally
supplied embeddings.  Both number documents in doc-id order and break score
ties by position, which is ascending doc_id, so repeat runs give identical output.
"""

from __future__ import annotations

import array
import itertools
import math
import re
from collections import defaultdict
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .core import Document, RankedList
from .errors import CorpusError
from .records import _dump, iter_jsonl, open_input

BM25_K1 = 1.2
BM25_B = 0.75

# Maximal runs of Unicode alphanumerics; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+")
# Byte b to itself if it is an ASCII letter or digit, else to a space.  On
# ASCII text, _TOKEN_RE's runs are exactly the runs of those bytes.
_ASCII_SEPARATORS = bytes(b if b < 128 and chr(b).isalnum() else 0x20 for b in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters.

    No stemming and no stopword removal: "Models" and "model" are distinct
    terms on purpose, which is what makes acronym expansion observable.
    ASCII text is split by a byte translation, which gives the regex's
    tokens several times faster; other text goes through the regex.
    """
    if text.isascii():
        return text.lower().encode("ascii").translate(_ASCII_SEPARATORS).decode("ascii").split()
    return _TOKEN_RE.findall(text.lower())


def _top_k(ids: Sequence[str], positions: np.ndarray, scores: np.ndarray, k: int) -> tuple[str, ...]:
    """ids of the k best positions: score descending, then position (doc-id order) ascending."""
    if len(scores) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        positions, scores = positions[keep], scores[keep]
    order = np.lexsort((positions, -scores))[:k]
    return tuple(ids[p] for p in positions[order].tolist())


def build_index(corpus: Iterable[Document]) -> dict[str, Document]:
    """The corpus's documents by doc_id, in corpus order, checked: distinct
    doc_ids, at least one document.  Bm25Retriever builds the search arrays."""
    doc_store: dict[str, Document] = {}
    for doc in corpus:
        if doc.doc_id in doc_store:
            raise CorpusError(f"duplicate doc_id in corpus: {doc.doc_id!r}")
        doc_store[doc.doc_id] = doc
    if not doc_store:
        raise CorpusError("corpus is empty")
    return doc_store


class RowError(ValueError):
    """A DenseStore row that cannot be normalized; row is its position."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class DenseStore:
    """Document embeddings: row p of matrix is ids[p]'s raw row over its norm.

    It is made from ids and their (N, dim) raw rows, an array or a list of
    rows, which it copies in doc-id order and divides; a row that cannot be
    divided by its norm raises RowError naming the row's index as given.
    The ids must be distinct, which load_dense_store checks.  Then ids is
    sorted, matrix is one C-contiguous float64 (N, dim) array and the source
    of truth for every score, and matrix32, a float32 copy of it, is what
    dense_search scans to pick candidates (N * dim * 4 more bytes).
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray | Sequence[Sequence[float]]):
        if len(matrix) != len(ids):
            raise ValueError(f"matrix has {len(matrix)} rows, expected {len(ids)}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        rows = np.array([matrix[p] for p in order], dtype=np.float64)  # a copy, divided in place
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError(f"matrix has shape {rows.shape}, expected ({len(ids)}, dim), both >= 1")
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        # A norm under 2**-511 has a square below the smallest normal float,
        # which lost bits to underflow; one that overflows is inf.
        bad = np.flatnonzero(~((norms >= 2.0**-511) & (norms < np.inf)))
        if bad.size:
            p = int(bad[0])
            what = (
                "holds a non-finite value" if not np.isfinite(rows[p]).all()
                else "is all zeros and cannot be normalized" if not rows[p].any()
                else f"has a norm too {'large' if norms[p] > 1 else 'small'} to normalize"
            )
            raise RowError(f"vector for {ids[order[p]]!r} {what}", order[p])
        rows /= norms[:, None]
        self.ids = tuple(ids[p] for p in order)
        self.matrix = rows
        self.matrix32 = rows.astype(np.float32)


def dense_search(store: DenseStore, query_vector: Iterable[float], k: int) -> RankedList:
    """Top-k by cosine similarity, exact: the same ranking as scoring every row in float64.

    The query vector is normalized here, so cosine similarity reduces to a
    dot product against the unit-normalized store.  A float32 scan picks
    every row that can be in the top k; only those are scored in float64.
    Ties break by ascending doc_id.  Zero-similarity documents are kept;
    absence of signal is still a ranking for dense scores.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, dim = store.matrix.shape
    q = np.asarray(query_vector if isinstance(query_vector, np.ndarray) else list(query_vector), dtype=np.float64)
    if q.shape != (dim,):
        raise ValueError(f"query vector has shape {q.shape}, store expects ({dim},)")
    if not np.isfinite(q).all():
        raise ValueError("query vector holds a non-finite value")
    norm = float(np.linalg.norm(q))
    if norm > 0.0:
        q = q / norm
    # e bounds |float32 score - float64 score| for every row.  Rounding m
    # and q to float32, the d products and any order of the d - 1 sums
    # give at most gamma_{d+2} * |m| * |q| with gamma_j = j*u / (1 - j*u)
    # and u = 2**-24; the float64 score adds gamma_d at u = 2**-53.  Rows
    # are unit-norm within 1e-6 and q is normalized, so for any dim below
    # 2**22 the sum is under (dim + 4) * 2**-23, which has 2x slack.
    # Underflow adds at most 2**-150 per float32 rounding, 3 per element;
    # dim * 2**-146 covers it.
    e = (dim + 4) * 2.0**-23 + dim * 2.0**-146
    approx = np.einsum("ij,j->i", store.matrix32, q.astype(np.float32))
    t = float(np.partition(approx, max(n - k, 0))[max(n - k, 0)])
    # A row of the exact top k, ties with the k-th included, scores at
    # least (exact k-th) - e >= t - 2e here, since the k rows at or above
    # t score at least t - e in float64.  The bound is compared in float64.
    # With k >= n, t is the lowest score and every row is kept.
    positions = np.flatnonzero(approx >= np.float64(t - 2.0 * e))
    # einsum, not matrix @ q: a BLAS gemv can give identical rows different
    # sums, and then exact ties no longer break by doc_id.  A row's einsum is
    # the same float whether it is gathered or scored in the full matrix.
    sims = np.einsum("ij,j->i", store.matrix[positions], q)
    return RankedList(entries=_top_k(store.ids, positions, sims, k))


class Retriever(Protocol):
    """What the engine needs from a retrieval backend."""

    doc_store: Mapping[str, Document]

    def search(self, query: str, k: int) -> RankedList: ...


class Bm25Retriever:
    """BM25 search over a checked doc store, such as build_index returns.

    The search arrays are built once, here.  Documents are numbered in
    doc-id order: ids is sorted(doc_store) and ids[p] is the doc_id at
    position p.  The term numbered r by vocabulary owns the
    CSR row indptr[r]:indptr[r + 1] of doc_pos (the positions of the
    documents holding it, ascending) and weights (each one's BM25 weight).
    """

    def __init__(self, doc_store: Mapping[str, Document]):
        n = len(doc_store)
        if not n:
            raise CorpusError("corpus is empty")
        self.doc_store = doc_store
        self.ids = tuple(sorted(doc_store))
        lengths: list[int] = []
        # Terms are numbered in order of first occurrence; rows holds every
        # token's term number, document after document.
        vocabulary: defaultdict[str, int] = defaultdict(itertools.count().__next__)
        rows = array.array("q")
        for doc_id in self.ids:
            tokens = tokenize(doc_store[doc_id].text)
            lengths.append(len(tokens))
            rows.extend(map(vocabulary.__getitem__, tokens))
        avg = sum(lengths) / n
        # One key per token, row * n + position, made in rows itself and sorted
        # there: the runs of equal keys are the (term, document) pairs in CSR
        # order and their lengths the tfs.  The largest key is below
        # len(vocabulary) * n, far inside int64.  Each step works in place or
        # drops its input, so the build peaks below twice what it keeps.
        keys = np.frombuffer(rows, dtype=np.int64)
        keys *= n
        keys += np.repeat(np.arange(n), lengths)
        keys.sort()
        # bounds: each run's start, then len(keys); the sentinels make an
        # empty keys (no document has a token) one bound and no run.
        run_start = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:-1])
        bounds = np.flatnonzero(run_start)
        del run_start
        pairs = keys[bounds[:-1]]
        del keys, rows
        tf = np.empty(len(pairs))
        np.subtract(bounds[1:], bounds[:-1], out=tf)
        del bounds
        # Row r's keys are the pairs' keys in [r * n, (r + 1) * n).
        self.indptr = np.searchsorted(pairs, np.arange(len(vocabulary) + 1, dtype=np.int64) * n)
        self.doc_pos = np.remainder(pairs, n, out=pairs)
        df = np.diff(self.indptr)
        # The BM25 arithmetic in place, one rounding per operation on the same
        # operands as the textbook loop (some + and * operands swapped, which is
        # exact), so a sum of these weights is that loop's float exactly.
        # math.log, not np.log: the latter's vector path may differ in the last ulp.
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
        denominator = np.array(lengths, dtype=np.float64)[self.doc_pos]
        denominator *= BM25_B
        denominator /= avg
        denominator += 1.0 - BM25_B
        denominator *= BM25_K1
        denominator += tf
        tf *= BM25_K1 + 1.0
        tf /= denominator
        del denominator
        self.weights = np.multiply(tf, np.repeat(idf, df), out=tf)
        self.vocabulary = dict(vocabulary)

    def _scores(self, terms: Iterable[str]) -> np.ndarray:
        """BM25 score of every document position (0.0 where no term matches).

        The query terms' CSR rows are concatenated in query-term order, repeats
        kept, and np.bincount adds them in that order, so each score is the
        float 0.0 + w1 + w2 + ... however it is asked for.
        """
        spans = [
            (self.indptr[row], self.indptr[row + 1])
            for row in (self.vocabulary.get(term) for term in terms)
            if row is not None
        ]
        if not spans:
            return np.zeros(len(self.ids))
        doc_pos = np.concatenate([self.doc_pos[a:b] for a, b in spans])
        weights = np.concatenate([self.weights[a:b] for a, b in spans])
        return np.bincount(doc_pos, weights, minlength=len(self.ids))

    def search(self, query: str, k: int) -> RankedList:
        """Top-k BM25 results for a raw query string.

        Only documents sharing at least one term with the query are scored;
        zero-score documents never appear, so results may be shorter than k.
        Ties break by ascending doc_id.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self._scores(tokenize(query))
        hits = np.flatnonzero(scores > 0.0)
        return RankedList(entries=_top_k(self.ids, hits, scores[hits], k))


class DenseRetriever:
    """Dense search plus a query embedder and document texts for prompts."""

    def __init__(
        self,
        store: DenseStore,
        doc_store: Mapping[str, Document],
        embed: Callable[[str], Iterable[float]],
    ):
        for doc_id in store.ids:
            if doc_id not in doc_store:
                raise CorpusError(f"embedding doc_id {doc_id!r} has no document text")
        self.store = store
        self.doc_store = doc_store
        self._embed = embed

    def search(self, query: str, k: int) -> RankedList:
        return dense_search(self.store, self._embed(query), k)


# ---------------------------------------------------------------------------
# File formats: JSON lines for corpora and embeddings.  A saved index is a
# corpus file, and Bm25Retriever builds its search arrays.


def load_corpus(path: str) -> list[Document]:
    """Read a JSONL corpus file of {"doc_id": str, "text": str} records.  A
    bad record or a repeated doc_id raises CorpusError naming file and line."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open_input(path, "corpus", CorpusError) as fh:
        for lineno, record in iter_jsonl(fh, path, CorpusError, frozenset({"doc_id", "text"})):
            doc_id, text = record["doc_id"], record["text"]
            if not isinstance(doc_id, str) or not isinstance(text, str):
                raise CorpusError(f"{path}: line {lineno}: doc_id and text must be strings")
            try:
                doc = Document(doc_id=doc_id, text=text)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            if doc_id in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            docs.append(doc)
    if not docs:
        raise CorpusError(f"{path}: corpus file contains no documents")
    return docs


def json_vector(value: object) -> np.ndarray | None:
    """value as a 1-D integer or float array if it is a non-empty JSON list of numbers,
    else None.  Other JSON values, and integers past 64 bits, infer another shape or dtype."""
    try:
        row = np.array(value)
    except ValueError:  # nested lists of unequal lengths
        return None
    if row.ndim != 1 or not row.size or row.dtype.kind not in "iuf":
        return None
    # A boolean among numbers becomes an exact 0 or 1: only such rows have their types scanned.
    return None if np.count_nonzero((row == 0) | (row == 1)) and bool in map(type, value) else row


def load_dense_store(path: str, embed_endpoint: str | None = None) -> DenseStore:
    """Read a JSONL file of {"doc_id": str, "vector": [number, ...]} records.
    A bad record, or a row DenseStore rejects, raises CorpusError naming file
    and line.  embed_endpoint is accepted for existing callers and not used."""
    rows: list[np.ndarray] = []
    lines: dict[str, int] = {}  # doc_id to line number, in file order
    with open_input(path, "embeddings", CorpusError) as fh:
        for lineno, record in iter_jsonl(fh, path, CorpusError, frozenset({"doc_id", "vector"})):
            doc_id, vector = record["doc_id"], record["vector"]
            if not isinstance(doc_id, str):
                raise CorpusError(f"{path}: line {lineno}: doc_id must be a string")
            row = json_vector(vector)
            if row is None:
                raise CorpusError(f"{path}: line {lineno}: vector must be a non-empty list of numbers")
            if rows and row.size != rows[0].size:
                raise CorpusError(f"{path}: line {lineno}: vector has {row.size} dimensions, expected {rows[0].size}")
            if doc_id in lines:
                raise CorpusError(f"{path}: line {lineno}: duplicate doc_id {doc_id!r}")
            lines[doc_id] = lineno
            rows.append(row)
    if not rows:
        raise CorpusError(f"{path}: embeddings file contains no vectors")
    try:
        return DenseStore(ids=tuple(lines), matrix=rows)
    except RowError as exc:
        raise CorpusError(f"{path}: line {list(lines.values())[exc.row]}: {exc}") from None


def save_index(doc_store: Mapping[str, Document], path: str) -> None:
    """Write the documents as corpus lines, in doc_store order, encoded as
    run and trace lines are."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(_dump({"doc_id": d.doc_id, "text": d.text}) + "\n" for d in doc_store.values()))


def load_index(path: str) -> dict[str, Document]:
    """The documents an index file holds, read as a corpus file is."""
    return build_index(load_corpus(path))
