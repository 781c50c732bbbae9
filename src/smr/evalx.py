"""Offline evaluation: ranking metrics, trace analytics, and reports.

Metrics are the classic graded/binary trio (nDCG, MAP, Recall, all @k).
Queries with no relevant documents in the judgments cannot be scored and
are excluded from aggregate means, but stay visible in the report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import CorpusError
from .records import iter_traces, open_input, read_run

# Every report scores these, in this order: name as printed -> key in rows and means.
METRIC_KEYS = {"ndcg@10": "ndcg10", "map@10": "map10", "recall@10": "recall10"}


def judgeable(rels: Mapping[str, int]) -> bool:
    """A query can be scored only if it has at least one relevant document."""
    return any(grade >= 1 for grade in rels.values())


def ndcg_at_k(ranking: Sequence[str], rels: Mapping[str, int], k: int = 10) -> float:
    """Graded nDCG with exponential gain 2^grade - 1 and log2(rank+1) discount.

    The ideal ordering considers every relevant document in the judgments,
    retrieved or not, so a ranking that never surfaces a known-relevant
    document is penalized for it.  Returns 0.0 for unjudgeable queries;
    callers exclude those from aggregates (see judgeable()).
    """
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:k], start=1):
        grade = rels.get(doc_id, 0)
        dcg += (2.0**grade - 1.0) / math.log2(i + 1)
    ideal_grades = sorted((g for g in rels.values() if g >= 1), reverse=True)
    idcg = 0.0
    for i, grade in enumerate(ideal_grades[:k], start=1):
        idcg += (2.0**grade - 1.0) / math.log2(i + 1)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def map_at_k(ranking: Sequence[str], rels: Mapping[str, int], k: int = 10) -> float:
    """Average precision at k with binarized relevance (grade >= 1).

    Normalizes by min(R, k) so a short perfect ranking is not punished for
    judgments deeper than the cutoff.
    """
    relevant = {doc_id for doc_id, grade in rels.items() if grade >= 1}
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for i, doc_id in enumerate(ranking[:k], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / min(len(relevant), k)


def recall_at_k(ranking: Sequence[str], rels: Mapping[str, int], k: int = 10) -> float:
    """Fraction of relevant documents (grade >= 1) present in the top k."""
    relevant = {doc_id for doc_id, grade in rels.items() if grade >= 1}
    if not relevant:
        return 0.0
    found = sum(1 for doc_id in ranking[:k] if doc_id in relevant)
    return found / len(relevant)


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: query_id -> {doc_id: grade}."""

    by_query: dict[str, dict[str, int]]

    def for_query(self, query_id: str) -> dict[str, int]:
        return self.by_query.get(query_id, {})


def parse_qrels(lines: Iterable[str], name: str = "qrels") -> Qrels:
    """Parse the four-column judgment format: query_id 0 doc_id grade."""
    by_query: dict[str, dict[str, int]] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 4:
            raise CorpusError(f"{name}: line {lineno}: expected 4 fields, got {len(fields)}")
        query_id, _iteration, doc_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise CorpusError(f"{name}: line {lineno}: grade must be an integer, got {grade_text!r}")
        if grade < 0:
            raise CorpusError(f"{name}: line {lineno}: grade must be >= 0, got {grade}")
        grades = by_query.setdefault(query_id, {})
        if doc_id in grades:
            raise CorpusError(
                f"{name}: line {lineno}: repeated judgment for query {query_id!r}, doc {doc_id!r}"
            )
        grades[doc_id] = grade
    return Qrels(by_query=by_query)


def load_qrels(path: str) -> Qrels:
    with open_input(path, "qrels", CorpusError) as fh:
        return parse_qrels(fh, name=path)


@dataclass(frozen=True)
class TraceAnalytics:
    """Distilled view of a trace file.

    action_histogram counts refine and rerank decisions only; stop is a
    terminator, not a transformation.  step_depth_cumulative[i-1] is the
    number of queries that took at least i advancing steps, so the bins
    never increase.
    """

    action_histogram: dict[str, int]
    step_depth_cumulative: list[int]
    per_query: dict[str, dict]


def analyze_traces(lines: Iterable[str], name: str = "trace") -> TraceAnalytics:
    histogram: dict[str, int] = {}
    summaries: dict[str, dict] = {}
    for trace in iter_traces(lines, name):
        for record in trace.transitions:
            action = record["action"]
            if action != "stop":
                histogram[action] = histogram.get(action, 0) + 1
        if trace.error is not None:
            continue
        summary = trace.summary or {}
        summaries[trace.query_id] = {key: summary.get(key) for key in ("steps", "output_tokens", "stop_cause")}
    depths = [info["steps"] for info in summaries.values()]
    max_depth = max(depths, default=0)
    cumulative = [sum(1 for d in depths if d >= i) for i in range(1, max_depth + 1)]
    return TraceAnalytics(action_histogram=histogram, step_depth_cumulative=cumulative, per_query=summaries)


@dataclass(frozen=True)
class EvalReport:
    """Per-query metric rows plus aggregates and run-shape analytics."""

    metrics: list[str]
    per_query: dict[str, dict]
    aggregate: dict[str, float]
    excluded_queries: list[str]
    failed_queries: list[str]
    total_output_tokens: int
    action_histogram: dict[str, int] = field(default_factory=dict)
    step_depth_cumulative: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[list[str]]:
        keys = [METRIC_KEYS[m] for m in self.metrics]
        header = ["query_id", *keys, "steps", "output_tokens"]
        rows = [header]
        for query_id in sorted(self.per_query):
            entry = self.per_query[query_id]
            rows.append(
                [query_id]
                + [f"{entry[key]:.6f}" for key in keys]
                + [str(entry["steps"]), str(entry["output_tokens"])]
            )
        return rows


def load_run_records(path: str) -> list[dict]:
    """Read a run file back; error entries are passed through as written."""
    with open_input(path, "run", CorpusError) as fh:
        return read_run(fh, path)


_METRIC_FNS = {"ndcg@10": ndcg_at_k, "map@10": map_at_k, "recall@10": recall_at_k}


def build_report(
    run_records: Sequence[dict],
    qrels: Qrels,
    analytics: TraceAnalytics | None = None,
) -> EvalReport:
    """Join run output with judgments.

    Queries absent from the judgments, or judged with no relevant document,
    land in excluded_queries and stay out of the aggregate means.  Failed
    run entries are listed separately and never scored.
    """
    per_query: dict[str, dict] = {}
    excluded: list[str] = []
    failed: list[str] = []
    total_tokens = 0
    for record in run_records:
        query_id = str(record["query_id"])
        if "error" in record:
            failed.append(query_id)
            continue
        total_tokens += int(record.get("output_tokens", 0))
        rels = qrels.for_query(query_id)
        if not judgeable(rels):
            excluded.append(query_id)
            continue
        ranking = record["ranked_doc_ids"]
        entry: dict = {key: _METRIC_FNS[metric](ranking, rels, 10) for metric, key in METRIC_KEYS.items()}
        entry["steps"] = int(record.get("steps", 0))
        entry["output_tokens"] = int(record.get("output_tokens", 0))
        per_query[query_id] = entry
    aggregate: dict[str, float] = {}
    if per_query:
        for key in [*METRIC_KEYS.values(), "steps", "output_tokens"]:
            aggregate[key] = sum(entry[key] for entry in per_query.values()) / len(per_query)
    return EvalReport(
        metrics=list(METRIC_KEYS),
        per_query=per_query,
        aggregate=aggregate,
        excluded_queries=excluded,
        failed_queries=failed,
        total_output_tokens=total_tokens,
        action_histogram=analytics.action_histogram if analytics else {},
        step_depth_cumulative=analytics.step_depth_cumulative if analytics else [],
    )
