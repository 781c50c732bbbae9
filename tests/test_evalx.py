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
    Qrels,
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
        assert qrels.for_query("q1") == {"d1": 2, "d2": 0}
        assert qrels.for_query("q2") == {"d1": 1}

    def test_unknown_query_is_empty(self):
        assert parse_qrels([]).for_query("nope") == {}

    def test_blank_lines_skipped(self):
        qrels = parse_qrels(["", "q1 0 d1 1", "   "])
        assert qrels.for_query("q1") == {"d1": 1}

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
        assert load_qrels(str(path)).for_query("q1") == {"d1": 2, "d3": 1}


def transition_line(query_id: str, step: int, action: str, tokens: int = 0) -> str:
    return json.dumps({"query_id": query_id, "step": step, "action": action, "output_tokens": tokens})


def summary_line(query_id: str, steps: int, tokens: int, cause: str = "policy-stop") -> str:
    return json.dumps(
        {"query_id": query_id, "steps": steps, "output_tokens": tokens, "stop_cause": cause}
    )


def trace_for(query_id: str, actions: list[str], tokens: int) -> list[str]:
    """A query's trace; its last transition carries all the summary's tokens."""
    lines = [
        transition_line(query_id, i, a, tokens if i == len(actions) else 0)
        for i, a in enumerate(actions, start=1)
    ]
    advancing = sum(1 for a in actions if a != "stop")
    lines.append(summary_line(query_id, advancing, tokens))
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
        with pytest.raises(TraceFormatError, match=r"line 2"):
            analyze_traces([summary_line("a", 0, 0), "{oops"])

    def test_record_without_query_id_rejected(self):
        with pytest.raises(TraceFormatError, match="query_id"):
            analyze_traces([json.dumps({"steps": 1})])

    def test_unknown_action_rejected(self):
        with pytest.raises(TraceFormatError, match="merge"):
            analyze_traces([transition_line("a", 1, "merge")])

    def test_summary_step_count_cross_checked(self):
        lines = [
            transition_line("a", 1, "refine"),
            transition_line("a", 2, "refine"),
            summary_line("a", 5, 10),
        ]
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
                "line 1: transition needs an integer step",
            ),
            (trace_for("a", ["stop"], 1) + trace_for("a", ["stop"], 1), "line 3: query 'a' already ended"),
            (
                [transition_line("a", 1, "stop"), summary_line("a", 0, -7)],
                "line 2: summary needs non-negative integer steps and output_tokens",
            ),
            (
                [json.dumps({"query_id": True, "steps": 0, "output_tokens": 0, "stop_cause": "policy-stop"})],
                "line 1: query_id must be a string or an integer",
            ),
            (
                [transition_line("a", 1, "refine", -50), summary_line("a", 1, 3)],
                "line 1: transition needs non-negative integer output_tokens",
            ),
            (
                [transition_line("a", 1, "refine"), summary_line("a", 1, 3)],
                "line 2: query 'a' summary says 3 output_tokens, trace shows 0",
            ),
            (
                [transition_line("a", 7, "stop"), transition_line("a", 7, "refine"), summary_line("a", 1, 0)],
                "line 1: query 'a' step 7 should be 1",
            ),
            (
                [transition_line("a", 1, "refine"), transition_line("a", 3, "refine"), summary_line("a", 2, 0)],
                "line 2: query 'a' step 3 should be 2",
            ),
            (
                [transition_line("a", 1, "stop"), transition_line("a", 2, "refine"), summary_line("a", 1, 0)],
                "line 2: query 'a' has a transition after its stop",
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
        path.write_text('{"query_id": "q1", "ranked_doc_ids": []}\nnot json\n', encoding="utf-8")
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
        ],
        ids=[
            "ranking-not-a-list",
            "repeated-query-id",
            "non-integer-tokens",
            "repeated-doc-id",
            "non-string-doc-id",
            "negative-counts",
            "list-query-id",
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
    def qrels(self) -> Qrels:
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

    def test_csv_rows_sorted_and_formatted(self):
        records = [run_record("q10", ["d1", "d3"]), run_record("q02", ["d3", "d1"])]
        qrels = parse_qrels(["q10 0 d1 1", "q02 0 d1 1"])
        report = build_report(records, qrels)
        rows = report.csv_rows()
        assert rows[0] == ["query_id", "ndcg10", "map10", "recall10", "steps", "output_tokens"]
        assert [row[0] for row in rows[1:]] == ["q02", "q10"]
        assert rows[2][1] == "1.000000"
        assert rows[1][2] == "0.500000"  # d1 at rank 2
