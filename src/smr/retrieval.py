"""Sparse and dense retrieval over an in-memory corpus.

Sparse search is Okapi BM25 with every (term, document) weight computed once
at build and kept in flat CSR arrays; dense search is cosine similarity over
one matrix of externally supplied embeddings.  Both return ranked lists with
deterministic tie-breaking (ascending doc_id) so repeat runs produce
identical output.
"""

from __future__ import annotations

import array
import itertools
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .core import Document, RankedList
from .errors import CorpusError, UnknownDocumentError
from .records import iter_jsonl, open_input

BM25_K1 = 1.2
BM25_B = 0.75

# Maximal runs of Unicode alphanumerics; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+")
# Byte b to itself if it is an ASCII letter or digit, else to a space.  On
# ASCII text, _TOKEN_RE's runs are exactly the runs of those bytes.
_ASCII_SEPARATORS = bytes(b if b < 128 and chr(b).isalnum() else 0x20 for b in range(256))

_INDEX_FORMAT = "smr-index-v1"


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


def _sorted_rank(ids: Sequence[str]) -> np.ndarray:
    """rank[p] is the place of ids[p] in sorted(ids), the tie-break key."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _top_k(
    ids: Sequence[str], rank: np.ndarray, positions: np.ndarray, scores: np.ndarray, k: int
) -> tuple[str, ...]:
    """ids of the k best positions: score descending, then doc_id ascending."""
    if len(scores) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        positions, scores = positions[keep], scores[keep]
    order = np.lexsort((rank[positions], -scores))[:k]
    return tuple(ids[p] for p in positions[order].tolist())


@dataclass(frozen=True, eq=False)
class CorpusIndex:
    """BM25 index over a fixed corpus, as flat arrays.

    Documents are numbered by their position in the corpus: ids[p] is the
    doc_id at position p and rank[p] is its place in sorted(ids).  The term
    numbered r by vocabulary owns the CSR row indptr[r]:indptr[r + 1] of
    doc_pos (the positions of the documents holding it, ascending) and
    weights (each one's BM25 weight).  doc_store keeps the original
    documents for prompt rendering.  Only build_index makes one, so every
    field agrees with doc_store.
    """

    vocabulary: dict[str, int]
    indptr: np.ndarray
    doc_pos: np.ndarray
    weights: np.ndarray
    ids: tuple[str, ...]
    rank: np.ndarray
    avg_doc_length: float
    doc_store: dict[str, Document]

    @property
    def doc_count(self) -> int:
        return len(self.ids)


def build_index(corpus: Iterable[Document]) -> CorpusIndex:
    doc_store: dict[str, Document] = {}
    lengths: list[int] = []
    # Terms are numbered in order of first occurrence; rows holds every
    # token's term number, document after document.
    vocabulary: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    rows = array.array("q")
    for doc in corpus:
        if doc.doc_id in doc_store:
            raise CorpusError(f"duplicate doc_id in corpus: {doc.doc_id!r}")
        doc_store[doc.doc_id] = doc
        tokens = tokenize(doc.text)
        lengths.append(len(tokens))
        rows.extend(map(vocabulary.__getitem__, tokens))
    if not doc_store:
        raise CorpusError("corpus is empty")
    n = len(doc_store)
    avg = sum(lengths) / n
    # One key per token, row * n + position: the distinct keys, ascending,
    # are the (term, document) pairs in CSR order, and their counts the tfs.
    # The largest key is below len(vocabulary) * n, far inside int64.
    keys, counts = np.unique(
        np.array(rows, dtype=np.intp) * n + np.repeat(np.arange(n, dtype=np.intp), lengths),
        return_counts=True,
    )
    term_rows, doc_pos = np.divmod(keys, n)
    df = np.bincount(term_rows, minlength=len(vocabulary))
    # The BM25 arithmetic, elementwise in the same operand order as the
    # textbook loop, so a sum of these weights is that loop's float exactly.
    # math.log, not np.log: the latter's vector path may differ in the last ulp.
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
    norm = 1.0 - BM25_B + BM25_B * np.array(lengths, dtype=np.float64)[doc_pos] / avg
    tf = counts.astype(np.float64)
    weights = idf[term_rows] * (tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm))
    indptr = np.zeros(len(vocabulary) + 1, dtype=np.intp)
    np.cumsum(df, out=indptr[1:])
    ids = tuple(doc_store)
    return CorpusIndex(
        vocabulary=dict(vocabulary),
        indptr=indptr,
        doc_pos=doc_pos,
        weights=weights,
        ids=ids,
        rank=_sorted_rank(ids),
        avg_doc_length=avg,
        doc_store=doc_store,
    )


def _scores(index: CorpusIndex, terms: Iterable[str]) -> np.ndarray:
    """BM25 score of every document position (0.0 where no term matches).

    The query terms' CSR rows are concatenated in query-term order, repeats
    kept, and np.bincount adds them in that order, so each score is the
    float 0.0 + w1 + w2 + ... however it is asked for.
    """
    spans = [
        (index.indptr[row], index.indptr[row + 1])
        for row in (index.vocabulary.get(term) for term in terms)
        if row is not None
    ]
    if not spans:
        return np.zeros(index.doc_count)
    doc_pos = np.concatenate([index.doc_pos[a:b] for a, b in spans])
    weights = np.concatenate([index.weights[a:b] for a, b in spans])
    return np.bincount(doc_pos, weights, minlength=index.doc_count)


def bm25_score(index: CorpusIndex, query_terms: list[str], doc_id: str) -> float:
    """BM25 score of one document for an already-tokenized query.

    Terms absent from the document (or the whole corpus) contribute zero.
    Repeated query terms contribute once per occurrence.
    """
    if doc_id not in index.doc_store:
        raise UnknownDocumentError(f"doc_id not in index: {doc_id!r}")
    return float(_scores(index, query_terms)[index.ids.index(doc_id)])


def search(index: CorpusIndex, query: str, k: int) -> RankedList:
    """Top-k BM25 results for a raw query string.

    Only documents sharing at least one term with the query are scored;
    zero-score documents never appear, so results may be shorter than k.
    Ties break by ascending doc_id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = _scores(index, tokenize(query))
    hits = np.flatnonzero(scores > 0.0)
    return RankedList(entries=_top_k(index.ids, index.rank, hits, scores[hits], k))


@dataclass(frozen=True, eq=False)
class DenseStore:
    """Unit-normalized document embeddings: row p of matrix is ids[p]'s vector.

    The matrix is one C-contiguous float64 (N, dim) array and the source of
    truth for every score; matrix32 is a float32 copy derived from it, which
    dense_search scans to pick candidates (N * dim * 4 more bytes).  rank[p]
    is ids[p]'s place in sorted(ids).
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    matrix32: np.ndarray = field(init=False, repr=False)
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.ids) or matrix.size == 0:
            raise ValueError(f"matrix has shape {matrix.shape}, expected ({len(self.ids)}, dim), both >= 1")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("dense store ids must be distinct")
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))  # a NaN norm is off too
        if off.size:
            p = off[0]
            raise ValueError(f"vector for {self.ids[p]!r} is not unit-normalized (norm={norms[p]})")
        object.__setattr__(self, "matrix32", matrix.astype(np.float32))
        object.__setattr__(self, "rank", _sorted_rank(self.ids))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def build_dense_store(entries: Iterable[tuple[str, Iterable[float]]]) -> DenseStore:
    """Build a store from raw (doc_id, vector) pairs, normalizing each vector."""
    rows: dict[str, np.ndarray] = {}
    dim: int | None = None
    for doc_id, raw in entries:
        if doc_id in rows:
            raise CorpusError(f"duplicate doc_id in embeddings: {doc_id!r}")
        vec = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw), dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise CorpusError(f"vector for {doc_id!r} must be a non-empty flat list")
        if dim is None:
            dim = int(vec.size)
        elif vec.size != dim:
            raise CorpusError(
                f"vector for {doc_id!r} has {vec.size} dimensions, expected {dim}"
            )
        rows[doc_id] = vec
    if dim is None:
        raise CorpusError("embeddings input is empty")
    ids = tuple(rows)
    matrix = np.stack(list(rows.values()))
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        p = bad[0]
        what = "is all zeros and cannot be normalized" if norms[p] == 0.0 else "holds a non-finite value"
        raise CorpusError(f"vector for {ids[p]!r} {what}")
    matrix /= norms[:, None]
    return DenseStore(ids=ids, matrix=matrix)


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
    q = np.asarray(query_vector if isinstance(query_vector, np.ndarray) else list(query_vector), dtype=np.float64)
    if q.shape != (store.dim,):
        raise ValueError(f"query vector has shape {q.shape}, store expects ({store.dim},)")
    if not np.isfinite(q).all():
        raise ValueError("query vector holds a non-finite value")
    norm = float(np.linalg.norm(q))
    if norm > 0.0:
        q = q / norm
    n = len(store.ids)
    matrix, positions = store.matrix, np.arange(n)
    if k < n:
        # e bounds |float32 score - float64 score| for every row.  Rounding m
        # and q to float32, the d products and any order of the d - 1 sums
        # give at most gamma_{d+2} * |m| * |q| with gamma_j = j*u / (1 - j*u)
        # and u = 2**-24; the float64 score adds gamma_d at u = 2**-53.  Rows
        # are unit-norm within 1e-6 and q is normalized, so for any dim below
        # 2**22 the sum is under (dim + 4) * 2**-23, which has 2x slack.
        # Underflow adds at most 2**-150 per float32 rounding, 3 per element;
        # dim * 2**-146 covers it.
        e = (store.dim + 4) * 2.0**-23 + store.dim * 2.0**-146
        approx = np.einsum("ij,j->i", store.matrix32, q.astype(np.float32))
        t = float(np.partition(approx, n - k)[n - k])
        # A row of the exact top k, ties with the k-th included, scores at
        # least (exact k-th) - e >= t - 2e here, since the k rows at or above
        # t score at least t - e in float64.  The bound is compared in float64.
        positions = np.flatnonzero(approx >= np.float64(t - 2.0 * e))
        matrix = matrix[positions]
    # einsum, not matrix @ q: a BLAS gemv can give identical rows different
    # sums, and then exact ties no longer break by doc_id.  A row's einsum is
    # the same float whether it is gathered or scored in the full matrix.
    sims = np.einsum("ij,j->i", matrix, q)
    return RankedList(entries=_top_k(store.ids, store.rank, positions, sims, k))


class Retriever(Protocol):
    """What the engine needs from a retrieval backend."""

    doc_store: Mapping[str, Document]

    def search(self, query: str, k: int) -> RankedList: ...


class Bm25Retriever:
    def __init__(self, index: CorpusIndex):
        self.index = index
        self.doc_store: Mapping[str, Document] = index.doc_store

    def search(self, query: str, k: int) -> RankedList:
        return search(self.index, query, k)


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
# File formats: JSON lines for corpora and embeddings; a saved index is JSON
# holding its documents, and its postings are built again at load.


def _document(record: object, path: str, place: str, number: int) -> Document:
    """A {"doc_id": str, "text": str} record as a Document; a bad one raises
    CorpusError naming the file and the record's place in it."""
    if isinstance(record, dict):
        doc_id, text = record.get("doc_id"), record.get("text")
        if isinstance(doc_id, str) and isinstance(text, str):
            try:
                return Document(doc_id=doc_id, text=text)
            except ValueError as exc:
                raise CorpusError(f"{path}: {place} {number}: {exc}") from None
    raise CorpusError(f"{path}: {place} {number}: doc_id and text must be strings")


def _documents(records: Iterable[tuple[int, object]], path: str, place: str) -> list[Document]:
    """Numbered records as Documents, checked by _document; a repeated doc_id
    raises CorpusError naming the file and the record's place too."""
    docs: list[Document] = []
    seen: set[str] = set()
    for number, record in records:
        doc = _document(record, path, place, number)
        if doc.doc_id in seen:
            raise CorpusError(f"{path}: {place} {number}: duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        docs.append(doc)
    return docs


def load_corpus(path: str) -> list[Document]:
    """Read a JSONL corpus of {"doc_id": ..., "text": ...} records."""
    with open_input(path, "corpus", CorpusError) as fh:
        docs = _documents(iter_jsonl(fh, path, CorpusError, frozenset({"doc_id", "text"})), path, "line")
    if not docs:
        raise CorpusError(f"{path}: corpus file contains no documents")
    return docs


def load_dense_store(path: str, embed_endpoint: str | None = None) -> DenseStore:
    """Read a JSONL embedding file of {"doc_id": ..., "vector": [...]} records.

    embed_endpoint is accepted for existing callers and not used.
    """
    entries: list[tuple[str, np.ndarray]] = []
    with open_input(path, "embeddings", CorpusError) as fh:
        for lineno, record in iter_jsonl(fh, path, CorpusError, frozenset({"doc_id", "vector"})):
            doc_id, vector = record["doc_id"], record["vector"]
            if not isinstance(doc_id, str) or not isinstance(vector, list):
                raise CorpusError(f"{path}: line {lineno}: doc_id must be a string, vector a list")
            try:
                entries.append((doc_id, np.array(vector, dtype=np.float64)))
            except (TypeError, ValueError):
                raise CorpusError(f"{path}: line {lineno}: vector must be a list of numbers") from None
    try:
        return build_dense_store(entries)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def save_index(index: CorpusIndex, path: str) -> None:
    payload = {
        "format": _INDEX_FORMAT,
        "docs": [{"doc_id": d.doc_id, "text": d.text} for d in index.doc_store.values()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n")


def load_index(path: str) -> CorpusIndex:
    """Index the documents an index file holds; postings in older files are ignored."""
    try:
        with open_input(path, "index", CorpusError) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: not a valid index file ({exc.msg})") from exc
    if not isinstance(payload, dict) or payload.get("format") != _INDEX_FORMAT:
        raise CorpusError(f"{path}: not a valid index file (missing format marker)")
    entries = payload.get("docs")
    if not isinstance(entries, list):
        raise CorpusError(f"{path}: index file needs a docs list")
    docs = _documents(enumerate(entries, start=1), path, "docs entry")
    try:
        return build_index(docs)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
