"""Independent reference implementations used to check the package.

Everything here is written from the defining formulas with plain loops and
no imports from the package under test, so agreement is meaningful.  Keep
these boring and obviously correct.  The one exception is bm25_score, a
probe that reads the package's own scores for the oracles to be checked
against.
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


def exhaustive_dense_ranking(ids, matrix: np.ndarray, query_vector, k: int) -> list[str]:
    """Top-k ids from a float64 einsum over every row of a store's matrix.

    The query is normalized as the search normalizes it; every row is scored,
    none skipped, and all are sorted by score descending, then doc_id
    ascending, with np.lexsort.  Scores that tie in float64 tie here.
    """
    q = np.asarray(query_vector, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    if norm > 0.0:
        q = q / norm
    sims = np.einsum("ij,j->i", matrix, q)
    order = np.lexsort((np.array(ids), -sims))
    return [ids[p] for p in order[:k].tolist()]


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


def reference_trajectory(query, search, replies, *, k, max_list_size, max_steps, max_attempts) -> dict:
    """One query's walk, straight from the loop's stated semantics.

    ``search(text, k)`` returns ranked ids.  ``replies`` holds, in the order
    the policy reads them, (reply, output_tokens) pairs, a reply being
    ("refine", text, reason), ("rerank", ids, reason), ("stop",) or
    ("malformed", text).  The rules:

    - attempt i of a decision runs at temperature i / 10;
    - a decision's tokens are every attempt's, the failed ones included;
    - max_attempts malformed replies in a row make a fallback stop;
    - a refine appends the novel retrieved ids to the tail, capped at
      max_list_size (oracle_merge), and takes the refined text as its query;
    - a rerank sanitizes its ids to a permutation (oracle_sanitize);
    - a step that leaves the state as it was (query trimmed, ids in order)
      ends the walk with an equivalence stop;
    - max_steps caps the steps that advance the state.

    Returns {"initial", "transitions", "stop_cause", "temperatures"}: states
    are (query, ids) pairs, each transition is ((action, refined_query,
    reranked_ids, reason), post state, output_tokens, temperature), and
    temperatures lists every attempt's temperature, in order.
    """
    pending = iter(replies)
    state = initial = (query, list(search(query, k)))
    transitions: list[tuple] = []
    temperatures: list[float] = []
    advanced, cause = 0, "step-cap"
    while advanced < max_steps:
        tokens = 0
        for attempt in range(max_attempts):
            temperatures.append(attempt / 10)
            reply, output_tokens = next(pending)
            tokens += output_tokens
            if reply[0] != "malformed":
                break
        if reply[0] in ("stop", "malformed"):
            transitions.append((("stop", None, None, None), state, tokens, temperatures[-1]))
            cause = "policy-stop" if reply[0] == "stop" else "policy-failure-fallback"
            break
        kind, payload, reason = reply
        if kind == "refine":
            decision = ("refine", payload, None, reason)
            post = (payload, oracle_merge(state[1], list(search(payload, k)), max_list_size))
        else:
            decision = ("rerank", None, tuple(payload), reason)
            post = (state[0], oracle_sanitize(state[1], list(payload)))
        transitions.append((decision, post, tokens, temperatures[-1]))
        if post[0].strip() == state[0].strip() and post[1] == state[1]:
            cause = "equivalence-stop"
            break
        state = post
        advanced += 1
    return {"initial": initial, "transitions": transitions, "stop_cause": cause, "temperatures": temperatures}


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


def bm25_score(retriever, query_terms: list[str], doc_id: str) -> float:
    """A Bm25Retriever's score of one document for an already-tokenized query.

    It reads one entry of the retriever's _scores, the scorer its search
    ranks with, so comparing it to the oracles above checks the package's own
    arithmetic.  Terms absent from the document (or the whole corpus)
    contribute zero; repeated query terms contribute once per occurrence.
    """
    from smr.errors import UnknownDocumentError

    if doc_id not in retriever.doc_store:
        raise UnknownDocumentError(f"doc_id not in index: {doc_id!r}")
    return float(retriever._scores(query_terms)[retriever.ids.index(doc_id)])
