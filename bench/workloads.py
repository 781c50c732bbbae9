"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of (workload, size, seed): the same
arguments write byte-identical files.  The program under test only ever
sees the files written by ``write_inputs`` (corpus, queries, script,
embeddings, qrels and a run config), and loads them through the same
loaders ``smr run`` uses.

Text is drawn from a Zipf(1) distribution over a 50k-term vocabulary, with
document lengths uniform in 60..180 tokens, so BM25's length norm matters; a
handful of terms have postings that cover most of the corpus.  Queries come
in two classes that alternate in query order: *common* queries take one
term from each quarter of the top-50 ranks, dealt from a shuffled deck per
quarter so that every rank is drawn equally often in every run, *rare*
queries take four terms that occur in at most 30 documents.  BM25 is slow on the first class and
fast on the second; both must stay in every BM25 query mix.

Each query follows a plan that ends in a known stop cause, so every
workload reaches all four causes, and a fixed share of first replies is
malformed so that temperature escalation and failed-attempt tokens are
exercised.  Plan kinds and the malformed share are assigned in exact
proportions per class, which keeps per-run aggregates steady across seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

VOCAB = 50_000
DOC_LEN = (60, 180)  # token count per document, uniform; mean 120
COMMON_TOP = 50
RARE_MIN_RANK = 200
RARE_MAX_DF = 30
UNKNOWN_ID = "zz-unknown"
STUB_MODEL = "loopback-stub"
STUB_KEY_ENV = "SMR_BENCH_STUB_KEY"
MAX_ATTEMPTS = 6

POLICY_STOP = "policy-stop"
EQUIVALENCE_STOP = "equivalence-stop"
STEP_CAP = "step-cap"
FALLBACK = "policy-failure-fallback"
STOP_CAUSES = (POLICY_STOP, EQUIVALENCE_STOP, STEP_CAP, FALLBACK)

# Plan steps: "refine" rewrites the query, "refine-same" repeats the current
# query (nothing novel, so equivalence), "rerank-same" proposes only an
# unknown id twice (sanitized to the unchanged list, so equivalence),
# "rerank-rev" proposes the whole predicted list reversed plus one unknown
# id and one duplicate, "stop" stops, "fail" answers malformed text on every
# attempt (fallback).  Reranks end a BM25 plan, so every decision of an HTTP
# plan is made on a distinct query string and the stub can key on it.
BM25_PLANS = {
    POLICY_STOP: ("refine", "stop"),
    EQUIVALENCE_STOP: ("refine", "rerank-same"),
    STEP_CAP: ("refine", "refine", "refine"),
    FALLBACK: ("refine", "fail"),
}
DENSE_PLANS = {
    POLICY_STOP: ("refine", "refine", "refine", "rerank-rev", "stop"),
    EQUIVALENCE_STOP: ("refine", "refine", "refine", "refine-same"),
    STEP_CAP: ("refine", "refine", "refine", "refine", "rerank-rev"),
    FALLBACK: ("refine", "refine", "refine", "fail"),
}
PLAN_SHARES = {POLICY_STOP: 0.30, EQUIVALENCE_STOP: 0.25, STEP_CAP: 0.25, FALLBACK: 0.20}
MALFORMED_FIRST_SHARE = 0.25

MALFORMED = (
    "I would refine the query first.",
    '{"action": "refine query."}',
    '{"action": "re-rank", "reranked": []}',
    '{"action": "refine query", "refined_query": ',
)


@dataclass(frozen=True)
class Workload:
    name: str
    retriever: str  # "bm25" or "dense"
    backend: str  # "scripted" or "http"
    docs: int
    queries: int
    k: int
    max_steps: int
    max_list_size: int = 100
    batch_size: int = 2
    dim: int = 256
    latency_s: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bm25-scripted", "bm25", "scripted", docs=10_000, queries=400, k=10, max_steps=3),
        Workload(
            "bm25-http", "bm25", "http", docs=2_000, queries=200, k=10, max_steps=3, latency_s=0.020
        ),
        Workload("dense-long", "dense", "scripted", docs=5_000, queries=200, k=25, max_steps=5),
    )
}


def sized(workload: Workload, size: str) -> Workload:
    """The workload at full size, or shrunk for the smoke test."""
    if size == "full":
        return workload
    return replace(workload, docs=300, queries=16)


def term(rank: int) -> str:
    """Bijective base-26 word for a vocabulary rank: a, b, ..., z, aa, ab, ..."""
    chars = []
    rank += 1
    while rank:
        rank, rem = divmod(rank - 1, 26)
        chars.append(chr(97 + rem))
    return "".join(reversed(chars))


def embed_text(seed: int, dim: int, text: str) -> np.ndarray:
    """Deterministic query embedder: a seeded hash of the text as a unit vector."""
    digest = hashlib.blake2b(f"{seed}:{text}".encode(), digest_size=8).digest()
    vec = np.random.default_rng(int.from_bytes(digest, "little")).standard_normal(dim)
    return vec / np.linalg.norm(vec)


@dataclass
class Inputs:
    workload: Workload
    seed: int
    config_path: Path
    corpus_path: Path
    queries_path: Path
    qrels_path: Path
    embeddings_path: Path | None
    stub_table_path: Path | None
    query_class: dict[str, str]  # query_id -> "common" | "rare"
    expected_stop: dict[str, str]  # query_id -> stop cause the plan ends in


class _Queries:
    """Draws query strings, never handing out the same string twice."""

    def __init__(self, rng: np.random.Generator, rare_pool: np.ndarray):
        self.rng = rng
        self.rare_pool = rare_pool
        self.used: set[str] = set()
        self.bands = np.array_split(np.arange(COMMON_TOP), 4)
        self.decks: list[list[int]] = [[] for _ in self.bands]

    def _common_terms(self) -> list[int]:
        # A term's postings length is set by its rank, so dealing ranks from
        # decks keeps the cost mix of common queries the same from seed to seed.
        for band, deck in zip(self.bands, self.decks):
            if not deck:
                deck.extend(int(t) for t in self.rng.permutation(band))
        return [deck.pop() for deck in self.decks]

    def _rare_terms(self) -> list[int]:
        return [int(t) for t in self.rng.choice(self.rare_pool, size=4, replace=False)]

    def fresh(self, cls: str, base: list[int] | None = None) -> tuple[str, list[int]]:
        """A new query: four terms of the class, or base with two terms swapped."""
        while True:
            draw = self._common_terms() if cls == "common" else self._rare_terms()
            if base is None:
                terms = draw
            else:
                terms = list(base)
                for pos in self.rng.choice(4, size=2, replace=False):
                    terms[pos] = draw[pos]
            self.rng.shuffle(terms)
            if len(set(terms)) < 4:
                continue
            text = " ".join(term(t) for t in terms)
            if text not in self.used:
                self.used.add(text)
                return text, terms


def _exact_counts(n: int, shares: dict[str, float]) -> list[str]:
    """n labels in the given shares, every label at least once when n allows."""
    counts = {key: max(1, round(n * share)) for key, share in shares.items()}
    first = next(iter(shares))
    counts[first] += n - sum(counts.values())
    return [key for key, count in counts.items() for _ in range(count)]


def _refine(query: str) -> str:
    return json.dumps({"action": "refine query", "refined_query": query, "reason": "widen the search"})


def _rerank(ids: list[str]) -> str:
    return json.dumps({"action": "re-rank", "reranked": ids, "reason": "best evidence first"})


_STOP = json.dumps({"action": "stop"})


class _DensePredictor:
    """Predicts the ranked list a dense trajectory holds, to script full-list reranks.

    Same scores, tie order and merge rule as the program; a misprediction
    only changes which ids the proposal names, and the output checks catch
    any resulting difference in stop cause.
    """

    def __init__(self, matrix: np.ndarray, seed: int, dim: int):
        self.matrix = matrix
        self.seed = seed
        self.dim = dim
        self.positions = np.arange(len(matrix))

    def top(self, text: str, k: int) -> list[str]:
        sims = self.matrix @ embed_text(self.seed, self.dim, text)
        order = np.lexsort((self.positions, -sims))[:k]
        return [f"d{i:06d}" for i in order]

    @staticmethod
    def merge(current: list[str], retrieved: list[str], cap: int) -> list[str]:
        have = set(current)
        novel = [d for d in retrieved if d not in have]
        return current + novel[: max(0, cap - len(current))]


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Generate and write every input file of one workload run."""
    w = workload
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    out_dir.mkdir(parents=True, exist_ok=True)

    probs = 1.0 / np.arange(1, VOCAB + 1)
    probs /= probs.sum()
    tokens = rng.choice(VOCAB, size=(w.docs, DOC_LEN[1]), p=probs)
    lengths = rng.integers(DOC_LEN[0], DOC_LEN[1] + 1, size=w.docs)
    words = [term(r) for r in range(VOCAB)]
    corpus_path = out_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i, (row, length) in enumerate(zip(tokens.tolist(), lengths.tolist())):
            text = " ".join(words[t] for t in row[:length])
            fh.write(json.dumps({"doc_id": f"d{i:06d}", "text": text}) + "\n")

    kept = np.arange(DOC_LEN[1]) < lengths[:, None]
    pairs = np.unique((tokens + np.arange(w.docs)[:, None] * VOCAB)[kept])
    df = np.bincount(pairs % VOCAB, minlength=VOCAB)
    ranks = np.arange(VOCAB)
    rare_pool = ranks[(ranks >= RARE_MIN_RANK) & (df >= 1) & (df <= RARE_MAX_DF)]
    if len(rare_pool) < 4:
        raise ValueError("corpus too small to draw rare-term queries")

    predictor = None
    embeddings_path = None
    if w.retriever == "dense":
        matrix = np.round(rng.standard_normal((w.docs, w.dim)), 6)
        embeddings_path = out_dir / "embeddings.jsonl"
        with open(embeddings_path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(matrix.tolist()):
                fh.write(json.dumps({"doc_id": f"d{i:06d}", "vector": row}) + "\n")
        unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        predictor = _DensePredictor(unit, seed, w.dim)

    plans = BM25_PLANS if w.retriever == "bm25" else DENSE_PLANS
    per_class = w.queries // 2
    kinds = {cls: list(rng.permutation(_exact_counts(per_class, PLAN_SHARES))) for cls in ("common", "rare")}
    malformed = {
        cls: set(rng.permutation(per_class)[: round(per_class * MALFORMED_FIRST_SHARE)].tolist())
        for cls in ("common", "rare")
    }
    drawer = _Queries(rng, rare_pool)
    queries: list[dict] = []
    query_class: dict[str, str] = {}
    expected_stop: dict[str, str] = {}
    script: dict[str, list[str]] = {}
    stub_table: dict[str, list[str]] = {}
    for i in range(2 * per_class):
        cls = "common" if i % 2 == 0 else "rare"
        slot = i // 2
        kind = str(kinds[cls][slot])
        qid = f"q{i:04d}"
        text, terms = drawer.fresh(cls)
        queries.append({"query_id": qid, "text": text})
        query_class[qid] = cls
        expected_stop[qid] = kind

        current = text
        predicted = predictor.top(text, w.k) if predictor else []
        decisions: list[tuple[str, list[str]]] = []
        for step in plans[kind]:
            if step == "refine":
                target, terms = drawer.fresh(cls, terms)
                replies = [_refine(target)]
            elif step == "refine-same":
                target, replies = current, [_refine(current)]
            elif step == "rerank-same":
                target, replies = current, [_rerank([UNKNOWN_ID, UNKNOWN_ID])]
            elif step == "rerank-rev":
                proposal = predicted[::-1]
                proposal.insert(len(proposal) // 2, UNKNOWN_ID)
                proposal.append(proposal[0])
                target, replies = current, [_rerank(proposal)]
            elif step == "stop":
                target, replies = current, [_STOP]
            else:
                target = current
                replies = [str(rng.choice(MALFORMED)) for _ in range(MAX_ATTEMPTS)]
            decisions.append((current, replies))
            if predictor and target != current:
                predicted = predictor.merge(predicted, predictor.top(target, w.k), w.max_list_size)
            current = target
        if slot in malformed[cls]:
            first_query, first_replies = decisions[0]
            decisions[0] = (first_query, [str(rng.choice(MALFORMED))] + first_replies)
        script[qid] = [reply for _query, replies in decisions for reply in replies]
        if w.backend == "http":
            for query, replies in decisions:
                if query in stub_table:
                    raise ValueError(f"decision query {query!r} is not unique")
                stub_table[query] = replies

    if not ({"common", "rare"} <= set(query_class.values())):
        raise ValueError("query mix must keep both common and rare queries")

    queries_path = out_dir / "queries.jsonl"
    with open(queries_path, "w", encoding="utf-8") as fh:
        for record in queries:
            fh.write(json.dumps(record) + "\n")

    qrels_path = out_dir / "qrels.txt"
    with open(qrels_path, "w", encoding="utf-8") as fh:
        for record in queries:
            for grade, doc in enumerate(rng.choice(w.docs, size=3, replace=False)):
                fh.write(f"{record['query_id']} 0 d{doc:06d} {grade}\n")

    stub_table_path = None
    if w.backend == "http":
        stub_table_path = out_dir / "stub_table.json"
        stub_table_path.write_text(json.dumps(stub_table), encoding="utf-8")
    else:
        (out_dir / "script.json").write_text(json.dumps(script), encoding="utf-8")
    return Inputs(
        workload=w,
        seed=seed,
        config_path=out_dir / "run_config.json",
        corpus_path=corpus_path,
        queries_path=queries_path,
        qrels_path=qrels_path,
        embeddings_path=embeddings_path,
        stub_table_path=stub_table_path,
        query_class=query_class,
        expected_stop=expected_stop,
    )


def write_run_config(inputs: Inputs, endpoint: str | None) -> None:
    """The run config ``smr run --config`` would read for these inputs."""
    w = inputs.workload
    if endpoint is not None:
        llm = {"endpoint": endpoint, "model": STUB_MODEL, "api_key_env": STUB_KEY_ENV}
    else:
        llm = {"script": "script.json"}
    if w.retriever == "bm25":
        retriever = {"bm25_index": "index.json"}
    else:
        retriever = {
            "dense_store": "embeddings.jsonl",
            "corpus": "corpus.jsonl",
            "embed_endpoint": "in-process",
            "embed_model": "seeded-hash",
        }
    config = {
        "retriever": retriever,
        "llm": llm,
        "engine": {
            "k": w.k,
            "max_steps": w.max_steps,
            "batch_size": w.batch_size,
            "max_list_size": w.max_list_size,
            "policy": {"max_attempts": MAX_ATTEMPTS},
        },
        "paths": {"queries": "queries.jsonl", "run": "out/run.jsonl", "trace": "out/trace.jsonl"},
    }
    inputs.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
