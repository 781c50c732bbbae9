"""Independent reference implementations used to check the package.

Everything here is written from the defining formulas with plain loops and
no imports from the package under test, so agreement is meaningful.  Keep
these boring and obviously correct.
"""

from __future__ import annotations

import json
import math

import numpy as np


def oracle_tokenize(text: str) -> list[str]:
    """Maximal runs of Unicode alphanumerics, lowercased (character walk)."""
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def oracle_bm25_scores(
    doc_tokens: dict[str, list[str]],
    query_terms: list[str],
    k1: float = 1.2,
    b: float = 0.75,
) -> dict[str, float]:
    """BM25 score of every document, straight from the formula."""
    n_docs = len(doc_tokens)
    avg_len = sum(len(toks) for toks in doc_tokens.values()) / n_docs
    scores: dict[str, float] = {}
    for doc_id, tokens in doc_tokens.items():
        score = 0.0
        for term in query_terms:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in doc_tokens.values() if term in other)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            numerator = tf * (k1 + 1.0)
            denominator = tf + k1 * (1.0 - b + b * len(tokens) / avg_len)
            score += idf * numerator / denominator
        scores[doc_id] = score
    return scores


def reference_bm25_sums(
    doc_tokens: dict[str, list[str]],
    query_terms: list[str],
    k1: float = 1.2,
    b: float = 0.75,
) -> dict[str, float]:
    """BM25 sums as a walk over posting lists makes them, to compare with ==.

    Postings are rebuilt from the tokens in corpus order.  Each matched
    document's score starts at 0.0 and adds one weight per query term, in
    query order (repeats included), as idf * (tf * (k1 + 1) / (tf + k1 * norm)).
    oracle_bm25_scores groups the same terms differently, so its floats may
    differ from these in the last bit; these are the bits an implementation
    that keeps this order must reproduce.  Unmatched documents are absent.
    """
    postings: dict[str, list[tuple[str, int]]] = {}
    for doc_id, tokens in doc_tokens.items():
        counts: dict[str, int] = {}
        for term in tokens:
            counts[term] = counts.get(term, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc_id, tf))
    n_docs = len(doc_tokens)
    avg_len = sum(len(tokens) for tokens in doc_tokens.values()) / n_docs
    scores: dict[str, float] = {}
    for term in query_terms:
        plist = postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist:
            norm = 1.0 - b + b * len(doc_tokens[doc_id]) / avg_len
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * (tf * (k1 + 1.0) / (tf + k1 * norm))
    return scores


def reference_csr(
    doc_tokens: dict[str, list[str]],
    k1: float = 1.2,
    b: float = 0.75,
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """A BM25 index's (vocabulary, indptr, doc_pos, weights), built with loops.

    Each document's terms are counted in order of first occurrence, and a
    term's postings grow document after document, so terms are numbered by
    first occurrence in the corpus and each row lists its documents'
    positions ascending.  Each weight is idf * (tf * (k1 + 1) / (tf + k1 *
    norm)), the float an implementation must reproduce bit for bit.  numpy
    only hands the lists back with the index's dtypes.
    """
    postings: dict[str, list[tuple[int, int]]] = {}
    for position, tokens in enumerate(doc_tokens.values()):
        counts: dict[str, int] = {}
        for term in tokens:
            counts[term] = counts.get(term, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((position, tf))
    lengths = [len(tokens) for tokens in doc_tokens.values()]
    n_docs = len(lengths)
    avg_len = sum(lengths) / n_docs
    vocabulary: dict[str, int] = {}
    indptr = [0]
    doc_pos: list[int] = []
    weights: list[float] = []
    for term, plist in postings.items():
        vocabulary[term] = len(vocabulary)
        df = len(plist)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for position, tf in plist:
            norm = 1.0 - b + b * lengths[position] / avg_len
            doc_pos.append(position)
            weights.append(idf * (tf * (k1 + 1.0) / (tf + k1 * norm)))
        indptr.append(len(doc_pos))
    return (
        vocabulary,
        np.array(indptr, dtype=np.intp),
        np.array(doc_pos, dtype=np.intp),
        np.array(weights, dtype=np.float64),
    )


def oracle_bm25_ranking(doc_tokens: dict[str, list[str]], query_terms: list[str], k: int) -> list[str]:
    """Top-k ids: positive scores only, score descending, doc_id ascending."""
    scores = oracle_bm25_scores(doc_tokens, query_terms)
    positive = [doc_id for doc_id, score in scores.items() if score > 0.0]
    positive.sort(key=lambda d: (-scores[d], d))
    return positive[:k]


def oracle_dense_ranking(
    vectors: dict[str, list[float]],
    query_vector: list[float],
    k: int,
) -> list[str]:
    """Exhaustive cosine ranking; both sides normalized with plain loops."""

    def unit(v: list[float]) -> list[float]:
        norm = math.sqrt(math.fsum(x * x for x in v))
        if norm == 0.0:
            return list(v)
        return [x / norm for x in v]

    q = unit(query_vector)
    sims = {
        doc_id: math.fsum(a * b for a, b in zip(unit(vec), q))
        for doc_id, vec in vectors.items()
    }
    ranked = sorted(sims, key=lambda d: (-sims[d], d))
    return ranked[:k]


def oracle_ndcg(ranking: list[str], rels: dict[str, int], k: int) -> float:
    dcg = 0.0
    for i in range(min(k, len(ranking))):
        grade = rels.get(ranking[i], 0)
        dcg += (2.0**grade - 1.0) / math.log2(i + 2)
    ideal = sorted((g for g in rels.values() if g > 0), reverse=True)
    idcg = 0.0
    for i in range(min(k, len(ideal))):
        idcg += (2.0 ** ideal[i] - 1.0) / math.log2(i + 2)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def oracle_map(ranking: list[str], rels: dict[str, int], k: int) -> float:
    relevant = {doc_id for doc_id, grade in rels.items() if grade > 0}
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for i in range(min(k, len(ranking))):
        if ranking[i] in relevant:
            hits += 1
            total += hits / (i + 1)
    return total / min(len(relevant), k)


def oracle_recall(ranking: list[str], rels: dict[str, int], k: int) -> float:
    relevant = {doc_id for doc_id, grade in rels.items() if grade > 0}
    if not relevant:
        return 0.0
    return len(relevant.intersection(ranking[:k])) / len(relevant)


def oracle_merge(current: list[str], retrieved: list[str], cap: int) -> list[str]:
    """Reference append-only merge: novel ids to the tail, newest cut first."""
    novel = [doc_id for doc_id in retrieved if doc_id not in current]
    room = cap - len(current)
    return list(current) + (novel[:room] if room > 0 else [])


def oracle_sanitize(current: list[str], proposed: list[str]) -> list[str]:
    """Reference rerank sanitizer: valid firsts, then omitted in old order."""
    kept: list[str] = []
    for doc_id in proposed:
        if doc_id in current and doc_id not in kept:
            kept.append(doc_id)
    for doc_id in current:
        if doc_id not in kept:
            kept.append(doc_id)
    return kept


def reference_render_user_text(query: str, entries, doc_store, doc_snippet_chars: int) -> str:
    """The policy prompt's user text, every document JSON-encoded on every call.

    The renderer as it was before rendered lines were cached, kept line for
    line; an unknown doc_id raises KeyError here.
    """
    lines = ["{", f'"query": {json.dumps(query, ensure_ascii=False)},']
    if entries:
        lines.append('"retrieved": [')
        for i, doc_id in enumerate(entries):
            doc = doc_store.get(doc_id)
            if doc is None:
                raise KeyError(doc_id)
            snippet = doc.text[:doc_snippet_chars]
            pair = (
                f"    ({json.dumps(doc_id, ensure_ascii=False)}, "
                f"{json.dumps(snippet, ensure_ascii=False)})"
            )
            lines.append(pair + ("," if i < len(entries) - 1 else ""))
        lines.append("]")
    else:
        lines.append('"retrieved": []')
    lines.append("}")
    return "\n".join(lines)


def format_decision(decision) -> str:
    """Serialize a Decision back into its documented output shape."""
    if decision.action == "refine":
        obj: dict = {"action": "refine query", "refined_query": decision.refined_query}
    elif decision.action == "rerank":
        obj = {"action": "re-rank", "reranked": list(decision.reranked_ids or ())}
    else:
        return json.dumps({"action": "stop"}, ensure_ascii=False)
    if decision.reason is not None:
        obj["reason"] = decision.reason
    return json.dumps(obj, ensure_ascii=False)
