from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr.cli import main
from smr.errors import CorpusError, TraceFormatError
from smr.evalx import (
    EvalReport,
    TraceAnalytics,
    analyze_traces,
    build_report,
    judgeable,
    load_qrels,
    load_run_records,
    map_at_k,
    ndcg_at_k,
    parse_qrels,
    recall_at_k,
)

from oracles import oracle_map, oracle_ndcg, oracle_recall


class TestJudgeable:
    def test_empty_is_not_judgeable(self):
        assert judgeable({}) is False

    def test_all_zero_grades_is_not_judgeable(self):
        assert judgeable({"d1": 0, "d2": 0}) is False

    def test_any_positive_grade_is_judgeable(self):
        assert judgeable({"d1": 0, "d2": 2}) is True


class TestMetricExamples:
    def test_perfect_ranking_scores_one(self):
        rels = {"d1": 2, "d2": 1}
        assert ndcg_at_k(["d1", "d2"], rels) == pytest.approx(1.0)
        assert map_at_k(["d1", "d2"], rels) == pytest.approx(1.0)
        assert recall_at_k(["d1", "d2"], rels) == pytest.approx(1.0)

    def test_map_single_relevant_at_rank_two(self):
        assert map_at_k(["d2", "d1"], {"d1": 1}) == pytest.approx(0.5)

    def test_ndcg_swapped_pair_hand_computed(self):
        dcg = 1.0 / math.log2(2) + 3.0 / math.log2(3)
        idcg = 3.0 / math.log2(2) + 1.0 / math.log2(3)
        assert ndcg_at_k(["d2", "d1"], {"d1": 2, "d2": 1}) == pytest.approx(dcg / idcg, abs=1e-12)

    def test_ideal_covers_unretrieved_relevant_docs(self):
        # d2 is relevant but missing from the ranking; the ideal still counts it.
        got = ndcg_at_k(["d1"], {"d1": 1, "d2": 1})
        idcg = 1.0 + 1.0 / math.log2(3)
        assert got == pytest.approx(1.0 / idcg)
        assert got < 1.0

    def test_rank_eleven_contributes_nothing(self):
        filler = [f"f{i}" for i in range(10)]
        assert ndcg_at_k(filler + ["d1"], {"d1": 3}) == 0.0
        assert map_at_k(filler + ["d1"], {"d1": 3}) == 0.0
        assert recall_at_k(filler + ["d1"], {"d1": 3}) == 0.0

    def test_recall_denominator_is_all_relevant(self):
        rels = {f"d{i}": 1 for i in range(15)}
        ranking = [f"d{i}" for i in range(10)]
        assert recall_at_k(ranking, rels) == pytest.approx(10 / 15)

    def test_map_normalizer_capped_at_k(self):
        # 15 relevant docs, perfect top 10: min(R, k) keeps this at 1.0.
        rels = {f"d{i}": 1 for i in range(15)}
        ranking = [f"d{i}" for i in range(10)]
        assert map_at_k(ranking, rels) == pytest.approx(1.0)

    def test_grade_zero_is_not_relevant(self):
        assert map_at_k(["d1"], {"d1": 0, "d2": 1}) == 0.0
        assert recall_at_k(["d1"], {"d1": 0, "d2": 1}) == 0.0

    def test_unjudgeable_query_scores_zero(self):
        for fn in (ndcg_at_k, map_at_k, recall_at_k):
            assert fn(["d1"], {}) == 0.0
            assert fn(["d1"], {"d1": 0}) == 0.0

    def test_empty_ranking_scores_zero(self):
        rels = {"d1": 2}
        assert ndcg_at_k([], rels) == 0.0
        assert map_at_k([], rels) == 0.0
        assert recall_at_k([], rels) == 0.0


doc_ids = st.sampled_from([f"d{i}" for i in range(12)])
rels_strategy = st.dictionaries(doc_ids, st.integers(min_value=0, max_value=3), max_size=12)
ranking_strategy = st.lists(doc_ids, unique=True, max_size=12)


class TestMetricProperties:
    @given(ranking=ranking_strategy, rels=rels_strategy)
    @settings(max_examples=300)
    def test_all_three_match_oracles(self, ranking, rels):
        assert ndcg_at_k(ranking, rels) == pytest.approx(oracle_ndcg(ranking, rels, 10), abs=1e-12)
        assert map_at_k(ranking, rels) == pytest.approx(oracle_map(ranking, rels, 10), abs=1e-12)
        assert recall_at_k(ranking, rels) == pytest.approx(oracle_recall(ranking, rels, 10), abs=1e-12)

    @given(ranking=ranking_strategy, rels=rels_strategy)
    @settings(max_examples=200)
    def test_relabeling_documents_changes_nothing(self, ranking, rels):
        rename = lambda doc_id: f"renamed::{doc_id}"
        ranking2 = [rename(d) for d in ranking]
        rels2 = {rename(d): g for d, g in rels.items()}
        for fn in (ndcg_at_k, map_at_k, recall_at_k):
            assert fn(ranking, rels) == pytest.approx(fn(ranking2, rels2), abs=1e-12)

    @given(ranking=ranking_strategy, rels=rels_strategy)
    @settings(max_examples=200)
    def test_scores_stay_in_unit_interval(self, ranking, rels):
        for fn in (ndcg_at_k, map_at_k, recall_at_k):
            assert 0.0 <= fn(ranking, rels) <= 1.0 + 1e-12


class TestQrels:
    def test_parse_groups_by_query(self):
        qrels = parse_qrels(["q1 0 d1 2", "q1 0 d2 0", "q2 0 d1 1"])
        assert qrels == {"q1": {"d1": 2, "d2": 0}, "q2": {"d1": 1}}

    def test_unknown_query_is_empty(self):
        assert "nope" not in parse_qrels(["q1 0 d1 1"])

    def test_blank_lines_skipped(self):
        qrels = parse_qrels(["", "q1 0 d1 1", "   "])
        assert qrels == {"q1": {"d1": 1}}

    def test_field_count_error_names_line(self):
        with pytest.raises(CorpusError, match=r"line 2"):
            parse_qrels(["q1 0 d1 1", "q1 d1 1"])

    def test_non_integer_grade_names_line(self):
        with pytest.raises(CorpusError, match=r"line 1.*high"):
            parse_qrels(["q1 0 d1 high"])

    def test_negative_grade_rejected(self):
        with pytest.raises(CorpusError, match=">= 0"):
            parse_qrels(["q1 0 d1 -1"])

    def test_repeated_judgment_names_file_and_line(self):
        with pytest.raises(CorpusError, match=r"^judged\.txt: line 3: repeated judgment .*'q1'.*'d1'"):
            parse_qrels(["q1 0 d1 2", "q2 0 d1 1", "q1 0 d1 0"], name="judged.txt")

    def test_load_from_file_names_path(self, tmp_path):
        path = tmp_path / "judgments.txt"
        path.write_text("q1 0 d1 2\nq1 0\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"judgments\.txt: line 2"):
            load_qrels(str(path))

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "judgments.txt"
        path.write_text("q1 0 d1 2\nq1 0 d3 1\n", encoding="utf-8")
        assert load_qrels(str(path)) == {"q1": {"d1": 2, "d3": 1}}


def transition_line(
    query_id: str, step: int, action: str, tokens: int = 0, cause: str | None = None, **fields: object
) -> str:
    """A transition shaped as emit_trace writes it, with cause as its stop_cause; fields override the rest."""
    record = {
        "query_id": query_id, "step": step, "action": action, "query": "q", "doc_ids": ["d1", "d2"],
        "reason": None, "output_tokens": tokens, "temperature": 0.0, **fields,
    }
    if cause is not None:
        record["stop_cause"] = cause
    return json.dumps(record)


def summary_line(query_id: str, steps: int, tokens: int, cause: str = "policy-stop") -> str:
    return json.dumps(
        {"query_id": query_id, "steps": steps, "output_tokens": tokens, "stop_cause": cause}
    )


def trace_for(query_id: str, actions: list[str], tokens: int) -> list[str]:
    """A query's trace as a run can write it, from the state transition_line
    defaults to: each refine changes the query and appends an id, a rerank
    reverses the list, and a stop repeats the state before it.  The last
    transition carries all the summary's tokens and the stop cause,
    policy-stop after a stop and step-cap otherwise."""
    cause = "policy-stop" if actions[-1] == "stop" else "step-cap"
    query, doc_ids = "q", ["d1", "d2"]
    lines = []
    for i, action in enumerate(actions, start=1):
        if action == "refine":
            query, doc_ids = f"{query} r{i}", [*doc_ids, f"d{len(doc_ids) + 1}"]
        elif action == "rerank":
            doc_ids = doc_ids[::-1]
        last = i == len(actions)
        lines.append(
            transition_line(
                query_id, i, action, tokens if last else 0, cause if last else None, query=query, doc_ids=doc_ids
            )
        )
    advancing = sum(1 for a in actions if a != "stop")
    lines.append(summary_line(query_id, advancing, tokens, cause))
    return lines


class TestAnalyzeTraces:
    def test_depth_bins_are_cumulative(self):
        lines = (
            trace_for("a", ["refine", "stop"], 47)
            + trace_for("b", ["refine", "rerank", "refine", "stop"], 67)
            + trace_for("c", ["rerank", "rerank", "rerank", "stop"], 70)
            + trace_for("d", ["refine"] * 6 + ["stop"], 68)
        )
        analytics = analyze_traces(lines)
        assert analytics.step_depth_cumulative == [4, 3, 3, 1, 1, 1]

    def test_histogram_excludes_stop(self):
        lines = trace_for("a", ["refine", "rerank", "refine", "stop"], 10)
        analytics = analyze_traces(lines)
        assert analytics.action_histogram == {"refine": 2, "rerank": 1}

    def test_stop_only_query_has_depth_zero(self):
        lines = trace_for("a", ["stop"], 5)
        analytics = analyze_traces(lines)
        assert analytics.step_depth_cumulative == []
        assert analytics.per_query["a"]["steps"] == 0

    def test_failed_queries_collected(self):
        lines = [json.dumps({"query_id": "bad", "error": "TransportError: boom"})]
        analytics = analyze_traces(lines)
        assert analytics.per_query == {}

    def test_invalid_json_names_line(self):
        with pytest.raises(TraceFormatError, match=r"line 3"):
            analyze_traces([*trace_for("a", ["stop"], 0), "{oops"])

    def test_record_without_query_id_rejected(self):
        with pytest.raises(TraceFormatError, match="query_id"):
            analyze_traces([json.dumps({"steps": 1})])

    def test_unknown_action_rejected(self):
        with pytest.raises(TraceFormatError, match="merge"):
            analyze_traces([transition_line("a", 1, "merge")])

    def test_summary_step_count_cross_checked(self):
        lines = [*trace_for("a", ["refine", "refine"], 0)[:-1], summary_line("a", 5, 0, cause="step-cap")]
        with pytest.raises(TraceFormatError, match="summary says 5 steps, trace shows 2"):
            analyze_traces(lines)

    def test_transitions_without_summary_rejected(self):
        with pytest.raises(TraceFormatError, match="no summary"):
            analyze_traces([transition_line("a", 1, "refine")])

    def test_empty_trace(self):
        analytics = analyze_traces([])
        assert analytics == TraceAnalytics({}, [], {})

    def test_blank_lines_ignored(self):
        lines = ["", *trace_for("a", ["stop"], 3), "  "]
        assert analyze_traces(lines).per_query["a"]["output_tokens"] == 3

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                [json.dumps({"query_id": "a", "action": "refine"}), summary_line("a", 1, 3)],
                "line 1: query 'a' step None should be 1",
            ),
            (trace_for("a", ["stop"], 1) + trace_for("a", ["stop"], 1), "line 3: query 'a' already ended"),
            (
                [transition_line("a", 1, "stop", cause="policy-stop"), summary_line("a", 0, -7)],
                "line 2: query 'a' summary says -7 output_tokens, trace shows 0",
            ),
            (
                [json.dumps({"query_id": True, "steps": 0, "output_tokens": 0, "stop_cause": "policy-stop"})],
                "line 1: query_id must be a string or an integer",
            ),
            (
                [transition_line("a", 1, "refine", -50, "step-cap"), summary_line("a", 1, 0, "step-cap")],
                "line 1: transition needs non-negative integer output_tokens",
            ),
            (
                [transition_line("a", 1, "refine", cause="step-cap"), summary_line("a", 1, 3, "step-cap")],
                "line 2: query 'a' summary says 3 output_tokens, trace shows 0",
            ),
            (
                [transition_line("a", 7, "stop"), transition_line("a", 7, "refine"), summary_line("a", 1, 0)],
                "line 1: query 'a' step 7 should be 1",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 3, "refine", cause="step-cap"),
                    summary_line("a", 2, 0, "step-cap"),
                ],
                "line 2: query 'a' step 3 should be 2",
            ),
            (
                [
                    transition_line("a", 1, "stop", cause="policy-stop"),
                    transition_line("a", 2, "refine", cause="step-cap"),
                    summary_line("a", 1, 0, "step-cap"),
                ],
                "line 2: query 'a' has a transition after its final one",
            ),
            (
                [summary_line("a", 0, 0)],
                "line 1: query 'a' summary comes before its final transition",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop"), summary_line("a", 0, 0, cause="bogus")],
                'line 2: query \'a\' summary says "bogus" stop_cause, trace shows "policy-stop"',
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop"), summary_line("a", 0, 0, cause="step-cap")],
                'line 2: query \'a\' summary says "step-cap" stop_cause, trace shows "policy-stop"',
            ),
            (
                [transition_line("a", 1, "refine", cause="policy-stop"), summary_line("a", 1, 0)],
                "line 1: a refine ends in equivalence-stop or step-cap, not 'policy-stop'",
            ),
            (
                [transition_line("a", 1, "rerank"), summary_line("a", 1, 0, cause="equivalence-stop")],
                "line 2: query 'a' summary comes before its final transition",
            ),
            (
                [transition_line("a", 1, "stop"), summary_line("a", 0, 0)],
                "line 1: a stop ends in policy-stop or policy-failure-fallback, not None",
            ),
            (
                [
                    transition_line("a", 1, "refine", cause="step-cap"),
                    transition_line("a", 2, "refine", cause="step-cap"),
                    summary_line("a", 2, 0, "step-cap"),
                ],
                "line 2: query 'a' has a transition after its final one",
            ),
            (
                [
                    transition_line("a", 1, "stop", cause="equivalence-stop"),
                    summary_line("a", 0, 0, "equivalence-stop"),
                ],
                "line 1: a stop ends in policy-stop or policy-failure-fallback, not 'equivalence-stop'",
            ),
            (
                [transition_line("a", 1, "stop", cause="bogus"), summary_line("a", 0, 0, "policy-stop")],
                "line 1: a stop ends in policy-stop or policy-failure-fallback, not 'bogus'",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", query=7), summary_line("a", 0, 0)],
                "line 1: transition needs a non-empty string query",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", query=""), summary_line("a", 0, 0)],
                "line 1: transition needs a non-empty string query",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", doc_ids="d1,d2"), summary_line("a", 0, 0)],
                "line 1: transition needs doc_ids, a list of distinct strings",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", doc_ids=["d1", 2]), summary_line("a", 0, 0)],
                "line 1: transition needs doc_ids, a list of distinct strings",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", doc_ids=["d1", "d1"]), summary_line("a", 0, 0)],
                "line 1: transition needs doc_ids, a list of distinct strings",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", reason=["why"]), summary_line("a", 0, 0)],
                "line 1: transition needs a reason, a string or null",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", temperature="hot"), summary_line("a", 0, 0)],
                "line 1: transition needs a temperature, a float multiple of 0.1 in \\[0, 1\\]",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", temperature=True), summary_line("a", 0, 0)],
                "line 1: transition needs a temperature, a float multiple of 0.1 in \\[0, 1\\]",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", temperature=1.5), summary_line("a", 0, 0)],
                "line 1: transition needs a temperature, a float multiple of 0.1 in \\[0, 1\\]",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", temperature=0), summary_line("a", 0, 0)],
                "line 1: transition needs a temperature, a float multiple of 0.1 in \\[0, 1\\]",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", temperature=0.37), summary_line("a", 0, 0)],
                "line 1: transition needs a temperature, a float multiple of 0.1 in \\[0, 1\\]",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop", reason="because"), summary_line("a", 0, 0)],
                "line 1: query 'a' stop has a reason",
            ),
            (
                [transition_line("a", 1, "refine"), json.dumps({"query_id": "a", "error": "boom"})],
                "line 2: query 'a' has an error after transitions",
            ),
            (
                [transition_line("a", 1, "refine", cause="step-cap"), summary_line("a", True, 0, "step-cap")],
                "line 2: query 'a' summary says true steps, trace shows 1",
            ),
            (
                [transition_line("a", 1, "stop", cause="policy-stop"), summary_line("a", 0, 0.0)],
                "line 2: query 'a' summary says 0.0 output_tokens, trace shows 0",
            ),
            (
                [transition_line("a", True, "stop", cause="policy-stop"), summary_line("a", 0, 0)],
                "line 1: query 'a' step True should be 1",
            ),
            (
                [
                    transition_line("a", 1, "refine", query="a", doc_ids=["d1", "d2"]),
                    transition_line("a", 2, "stop", cause="policy-stop", query="zzz", doc_ids=["d9"]),
                    summary_line("a", 1, 0),
                ],
                "line 2: query 'a' stop changes the state",
            ),
            (
                [
                    transition_line("a", 1, "rerank"),
                    transition_line("a", 2, "stop", cause="policy-stop", doc_ids=["d2", "d1"]),
                    summary_line("a", 1, 0),
                ],
                "line 2: query 'a' stop changes the state",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 2, "rerank", cause="step-cap", doc_ids=["d2", "d3"]),
                    summary_line("a", 2, 0, "step-cap"),
                ],
                "line 2: query 'a' rerank is not a reordering of the state before it",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 2, "rerank", cause="step-cap", query="q2", doc_ids=["d2", "d1"]),
                    summary_line("a", 2, 0, "step-cap"),
                ],
                "line 2: query 'a' rerank is not a reordering of the state before it",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 2, "refine", cause="step-cap", query="q2", doc_ids=["d2", "d1", "d3"]),
                    summary_line("a", 2, 0, "step-cap"),
                ],
                "line 2: query 'a' refine does not keep the list before it as its prefix",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 2, "refine", cause="step-cap", query=" q "),
                    summary_line("a", 2, 0, "step-cap"),
                ],
                "line 2: query 'a' refine repeats the state before it but ends in 'step-cap'",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 2, "rerank"),
                    transition_line("a", 3, "stop", cause="policy-stop"),
                    summary_line("a", 2, 0),
                ],
                "line 2: query 'a' rerank repeats the state before it but ends in None",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    transition_line("a", 2, "rerank", cause="equivalence-stop", doc_ids=["d2", "d1"]),
                    summary_line("a", 2, 0, "equivalence-stop"),
                ],
                "line 2: query 'a' rerank changes the state before it but ends in 'equivalence-stop'",
            ),
            (
                [
                    transition_line("a", 1, "refine"),
                    *trace_for("b", ["stop"], 0),
                    transition_line("a", 2, "stop", cause="policy-stop"),
                    summary_line("a", 1, 0),
                ],
                "line 2: query 'a' has transitions but no summary record",
            ),
        ],
        ids=[
            "transition-without-step",
            "query-repeated-after-summary",
            "negative-output-tokens",
            "boolean-query-id",
            "negative-transition-tokens",
            "summary-tokens-disagree",
            "step-not-position",
            "step-skipped",
            "transition-after-stop",
            "summary-without-transitions",
            "unknown-stop-cause",
            "stop-then-step-cap-summary",
            "refine-ending-in-policy-stop",
            "summary-cause-without-final-cause",
            "final-transition-without-stop-cause",
            "stop-cause-before-last-transition",
            "stop-ending-in-equivalence-stop",
            "unknown-transition-stop-cause",
            "non-string-query",
            "empty-query",
            "doc-ids-not-a-list",
            "non-string-doc-id",
            "repeated-doc-id",
            "non-string-reason",
            "string-temperature",
            "boolean-temperature",
            "temperature-above-one",
            "integer-temperature",
            "temperature-no-attempt-is-sent-at",
            "stop-with-a-reason",
            "error-after-transitions",
            "boolean-summary-steps",
            "float-summary-tokens",
            "boolean-step",
            "stop-changing-the-state",
            "stop-reordering-the-ids",
            "rerank-changing-the-ids",
            "rerank-changing-the-query",
            "refine-moving-a-ranked-id",
            "refine-repeating-the-state-ending-in-step-cap",
            "rerank-repeating-the-state-without-a-stop-cause",
            "rerank-changing-the-state-ending-in-equivalence-stop",
            "queries-interleaved",
        ],
    )
    def test_malformed_trace_names_file_and_line(self, lines, message):
        with pytest.raises(TraceFormatError, match=r"^trace\.jsonl: " + message):
            analyze_traces(lines, name="trace.jsonl")


def run_record(query_id: str, ranking: list[str], steps: int = 2, tokens: int = 40) -> dict:
    return {
        "query_id": query_id,
        "final_query": "q",
        "ranked_doc_ids": ranking,
        "stop_cause": "policy-stop",
        "steps": steps,
        "output_tokens": tokens,
    }


def without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


class TestLoadRunRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        records = [run_record("q1", ["d1"]), {"query_id": "q2", "error": "boom"}]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        assert load_run_records(str(path)) == records

    def test_record_needs_ranking_or_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"query_id": "q1"}) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_run_records(str(path))

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(run_record("q1", [])) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_run_records(str(path))

    @pytest.mark.parametrize(
        "records, lineno",
        [
            ([{**run_record("q1", []), "ranked_doc_ids": "d1"}], 1),
            ([run_record("q1", ["d1"], tokens=5), run_record("q1", ["d"], tokens=3)], 2),
            ([{**run_record("q1", ["d"]), "output_tokens": "many"}], 1),
            ([run_record("q2", ["d"]), run_record("q1", ["d", "d", "d"])], 2),
            ([run_record("q1", [1, 2])], 1),
            ([run_record("q1", ["d"]), run_record("q2", ["d"], steps=-2, tokens=-5)], 2),
            ([run_record("q1", ["d"]), {**run_record("q2", ["d"]), "query_id": [1]}], 2),
            ([{"query_id": "q1", "ranked_doc_ids": ["d1", "d3"]}], 1),
            ([without(run_record("q1", ["d"]), "final_query")], 1),
            ([{**run_record("q1", ["d"]), "final_query": 7}], 1),
            ([without(run_record("q1", ["d"]), "stop_cause")], 1),
            ([{**run_record("q1", ["d"]), "stop_cause": "bogus"}], 1),
            ([without(run_record("q1", ["d"]), "steps")], 1),
            ([without(run_record("q1", ["d"]), "output_tokens")], 1),
            ([run_record("q1", ["d"]), {"query_id": "q2", "error": 7}], 2),
            ([{"query_id": "q1", "error": None}], 1),
        ],
        ids=[
            "ranking-not-a-list",
            "repeated-query-id",
            "non-integer-tokens",
            "repeated-doc-id",
            "non-string-doc-id",
            "negative-counts",
            "list-query-id",
            "ranking-only",
            "missing-final-query",
            "non-string-final-query",
            "missing-stop-cause",
            "unknown-stop-cause",
            "missing-steps",
            "missing-output-tokens",
            "integer-error",
            "null-error",
        ],
    )
    def test_malformed_record_fails_eval_naming_line(self, tmp_path, capsys, records, lineno):
        run = tmp_path / "run.jsonl"
        run.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d 1\n", encoding="utf-8")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {run}: line {lineno}: ")


class TestBuildReport:
    def qrels(self) -> dict[str, dict[str, int]]:
        return parse_qrels(["q1 0 d1 2", "q1 0 d3 1", "q2 0 d9 0"])

    def test_perfect_query_scores_one_everywhere(self):
        records = [run_record("q1", ["d1", "d3"])]
        report = build_report(records, self.qrels())
        row = report.per_query["q1"]
        assert row["ndcg10"] == pytest.approx(1.0)
        assert row["map10"] == pytest.approx(1.0)
        assert row["recall10"] == pytest.approx(1.0)

    def test_unjudgeable_queries_excluded_but_counted(self):
        records = [run_record("q1", ["d1", "d3"]), run_record("q2", ["d9"], tokens=7)]
        report = build_report(records, self.qrels())
        assert report.excluded_queries == ["q2"]
        assert "q2" not in report.per_query
        # Excluded queries still burned tokens; the total reflects that.
        assert report.total_output_tokens == 47

    def test_unjudged_query_also_excluded(self):
        report = build_report([run_record("mystery", ["d1"])], self.qrels())
        assert report.excluded_queries == ["mystery"]

    def test_failed_entries_listed_not_scored(self):
        records = [run_record("q1", ["d1", "d3"]), {"query_id": "q9", "error": "boom"}]
        report = build_report(records, self.qrels())
        assert report.failed_queries == ["q9"]
        assert report.total_output_tokens == 40

    def test_aggregate_means_include_run_shape(self):
        records = [
            run_record("q1", ["d1", "d3"], steps=2, tokens=40),
            run_record("q3", ["d1"], steps=4, tokens=60),
        ]
        qrels = parse_qrels(["q1 0 d1 2", "q1 0 d3 1", "q3 0 d1 1"])
        report = build_report(records, qrels)
        assert report.aggregate["steps"] == pytest.approx(3.0)
        assert report.aggregate["output_tokens"] == pytest.approx(50.0)
        assert report.aggregate["ndcg10"] == pytest.approx(1.0)

    def test_no_scorable_queries_means_empty_aggregate(self):
        report = build_report([run_record("q2", ["d9"])], self.qrels())
        assert report.aggregate == {}

    def test_analytics_carried_into_report(self):
        analytics = analyze_traces(trace_for("q1", ["refine", "stop"], 40))
        report = build_report([run_record("q1", ["d1", "d3"])], self.qrels(), analytics=analytics)
        assert report.action_histogram == {"refine": 1}
        assert report.step_depth_cumulative == [1]

    def test_to_dict_shape(self):
        report = build_report([run_record("q1", ["d1", "d3"])], self.qrels())
        payload = report.to_dict()
        assert payload["metrics"] == ["ndcg@10", "map@10", "recall@10"]
        assert json.dumps(payload)  # serializable as-is
