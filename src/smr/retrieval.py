"""Sparse and dense retrieval over an in-memory corpus.

Sparse search is Okapi BM25 over an inverted index; dense search is cosine
similarity over externally supplied embeddings.  Both return ranked lists
with deterministic tie-breaking (ascending doc_id) so repeat runs produce
identical output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Protocol

import numpy as np

from .core import Document, RankedList, SOURCE_INITIAL
from .errors import CorpusError, UnknownDocumentError
from .records import iter_jsonl, open_input

BM25_K1 = 1.2
BM25_B = 0.75

# Maximal runs of Unicode alphanumerics; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+")

_INDEX_FORMAT = "smr-index-v1"


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters.

    No stemming and no stopword removal: "Models" and "model" are distinct
    terms on purpose, which is what makes acronym expansion observable.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class CorpusIndex:
    """Inverted index over a fixed corpus.

    postings maps term -> [(doc_id, term_frequency), ...] in corpus order;
    doc_store keeps the original documents for prompt rendering.  Only
    build_index makes one, so every field agrees with doc_store.
    """

    postings: dict[str, list[tuple[str, int]]]
    doc_lengths: dict[str, int]
    avg_doc_length: float
    doc_count: int
    doc_store: dict[str, Document]


def build_index(
    corpus: Iterable[Document],
    tokenizer: Callable[[str], list[str]] = tokenize,
) -> CorpusIndex:
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_lengths: dict[str, int] = {}
    doc_store: dict[str, Document] = {}
    for doc in corpus:
        if doc.doc_id in doc_store:
            raise CorpusError(f"duplicate doc_id in corpus: {doc.doc_id!r}")
        doc_store[doc.doc_id] = doc
        terms = tokenizer(doc.text)
        doc_lengths[doc.doc_id] = len(terms)
        counts: dict[str, int] = {}
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc.doc_id, tf))
    if not doc_store:
        raise CorpusError("corpus is empty")
    avg = sum(doc_lengths.values()) / len(doc_lengths)
    return CorpusIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=avg,
        doc_count=len(doc_store),
        doc_store=doc_store,
    )


def _scores(index: CorpusIndex, terms: Iterable[str]) -> dict[str, float]:
    """BM25 score of every document sharing a term with the query.

    Each document's sum runs in query-term order, so a score is the same
    float however it is asked for; repeated terms count once per occurrence.
    """
    scores: dict[str, float] = {}
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist:
            norm = 1.0 - BM25_B + BM25_B * index.doc_lengths[doc_id] / index.avg_doc_length
            weight = idf * (tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm))
            scores[doc_id] = scores.get(doc_id, 0.0) + weight
    return scores


def bm25_score(index: CorpusIndex, query_terms: list[str], doc_id: str) -> float:
    """BM25 score of one document for an already-tokenized query.

    Terms absent from the document (or the whole corpus) contribute zero.
    Repeated query terms contribute once per occurrence.
    """
    if doc_id not in index.doc_store:
        raise UnknownDocumentError(f"doc_id not in index: {doc_id!r}")
    return _scores(index, query_terms).get(doc_id, 0.0)


def search(index: CorpusIndex, query: str, k: int) -> RankedList:
    """Top-k BM25 results for a raw query string.

    Only documents sharing at least one term with the query are scored;
    zero-score documents never appear, so results may be shorter than k.
    Ties break by ascending doc_id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = _scores(index, tokenize(query))
    ranked = sorted(
        (doc_id for doc_id, s in scores.items() if s > 0.0),
        key=lambda d: (-scores[d], d),
    )
    return RankedList(entries=tuple(ranked[:k]), source=SOURCE_INITIAL)


@dataclass(frozen=True)
class DenseStore:
    """Unit-normalized document embeddings, all of one dimensionality."""

    dim: int
    vectors: dict[str, np.ndarray]
    embed_endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.vectors:
            raise ValueError("dense store must contain at least one vector")
        for doc_id, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(
                    f"vector for {doc_id!r} has shape {vec.shape}, expected ({self.dim},)"
                )
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"vector for {doc_id!r} is not unit-normalized (norm={norm})")


def build_dense_store(
    entries: Iterable[tuple[str, Iterable[float]]],
    embed_endpoint: str | None = None,
) -> DenseStore:
    """Build a store from raw (doc_id, vector) pairs, normalizing each vector."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for doc_id, raw in entries:
        if doc_id in vectors:
            raise CorpusError(f"duplicate doc_id in embeddings: {doc_id!r}")
        vec = np.asarray(list(raw), dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise CorpusError(f"vector for {doc_id!r} must be a non-empty flat list")
        if dim is None:
            dim = int(vec.size)
        elif vec.size != dim:
            raise CorpusError(
                f"vector for {doc_id!r} has {vec.size} dimensions, expected {dim}"
            )
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise CorpusError(f"vector for {doc_id!r} is all zeros and cannot be normalized")
        vectors[doc_id] = vec / norm
    if dim is None:
        raise CorpusError("embeddings input is empty")
    return DenseStore(dim=dim, vectors=vectors, embed_endpoint=embed_endpoint)


def dense_search(store: DenseStore, query_vector: Iterable[float], k: int) -> RankedList:
    """Top-k by cosine similarity, exhaustively scored.

    The query vector is normalized here, so cosine similarity reduces to a
    dot product against the unit-normalized store.  Ties break by ascending
    doc_id.  Zero-similarity documents are kept; absence of signal is still
    a ranking for dense scores.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(list(query_vector), dtype=np.float64)
    if q.shape != (store.dim,):
        raise ValueError(f"query vector has shape {q.shape}, store expects ({store.dim},)")
    norm = float(np.linalg.norm(q))
    if norm > 0.0:
        q = q / norm
    sims = {doc_id: float(np.dot(vec, q)) for doc_id, vec in store.vectors.items()}
    ranked = sorted(sims, key=lambda d: (-sims[d], d))
    return RankedList(entries=tuple(ranked[:k]), source=SOURCE_INITIAL)


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
        for doc_id in store.vectors:
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


def load_corpus(path: str) -> list[Document]:
    """Read a JSONL corpus of {"doc_id": ..., "text": ...} records."""
    with open_input(path, "corpus", CorpusError) as fh:
        docs = [
            _document(record, path, "line", lineno)
            for lineno, record in iter_jsonl(fh, path, CorpusError, frozenset({"doc_id", "text"}))
        ]
    if not docs:
        raise CorpusError(f"{path}: corpus file contains no documents")
    return docs


def load_dense_store(path: str, embed_endpoint: str | None = None) -> DenseStore:
    """Read a JSONL embedding file of {"doc_id": ..., "vector": [...]} records."""
    entries: list[tuple[str, list[float]]] = []
    with open_input(path, "embeddings", CorpusError) as fh:
        for lineno, record in iter_jsonl(fh, path, CorpusError, frozenset({"doc_id", "vector"})):
            doc_id, vector = record["doc_id"], record["vector"]
            if not isinstance(doc_id, str) or not isinstance(vector, list):
                raise CorpusError(f"{path}: line {lineno}: doc_id must be a string, vector a list")
            entries.append((doc_id, vector))
    try:
        return build_dense_store(entries, embed_endpoint=embed_endpoint)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def save_index(index: CorpusIndex, path: str) -> None:
    payload = {
        "format": _INDEX_FORMAT,
        "docs": [{"doc_id": d.doc_id, "text": d.text} for d in index.doc_store.values()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, separators=(",", ":"))
        fh.write("\n")


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
    docs = [_document(entry, path, "docs entry", number) for number, entry in enumerate(entries, start=1)]
    try:
        return build_index(docs)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
