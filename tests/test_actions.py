from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr.actions import exec_refine, exec_rerank, merge_retrieved, sanitize_rerank
from smr.core import Decision, RankedList, ReasoningState

from oracles import oracle_merge, oracle_sanitize


def ranked(ids: list[str]) -> RankedList:
    return RankedList(tuple(ids))


def make_state(query: str, ids: list[str]) -> ReasoningState:
    return ReasoningState(query=query, docs=ranked(ids), step=0)


class TestMergeRetrieved:
    def test_novel_ids_append_in_retriever_order(self):
        merged = merge_retrieved(ranked(["d1", "d2"]), ranked(["d3", "d1", "d4"]), 100)
        assert merged.entries == ("d1", "d2", "d3", "d4")

    def test_nothing_novel_keeps_list(self):
        merged = merge_retrieved(ranked(["d1", "d2"]), ranked(["d2", "d1"]), 100)
        assert merged.entries == ("d1", "d2")

    def test_existing_entries_never_move(self):
        merged = merge_retrieved(ranked(["d9", "d1"]), ranked(["d1", "d2", "d9"]), 100)
        assert merged.entries[:2] == ("d9", "d1")

    def test_cap_drops_newest_appended_first(self):
        merged = merge_retrieved(ranked(["d1", "d2"]), ranked(["d3", "d4", "d5"]), 4)
        assert merged.entries == ("d1", "d2", "d3", "d4")

    def test_cap_never_cuts_existing_entries(self):
        merged = merge_retrieved(ranked(["d1", "d2", "d3"]), ranked(["d4"]), 2)
        assert merged.entries == ("d1", "d2", "d3")

    def test_empty_retrieval(self):
        merged = merge_retrieved(ranked(["d1"]), ranked([]), 100)
        assert merged.entries == ("d1",)


class TestSanitizeRerank:
    def test_reference_example(self):
        result, report = sanitize_rerank(ranked(["d1", "d2", "d3"]), ["d2", "d9", "d1"])
        assert result.entries == ("d2", "d1", "d3")
        assert report.dropped_ids == ("d9",)
        assert report.reappended_ids == ("d3",)

    def test_duplicates_keep_first_occurrence(self):
        result, report = sanitize_rerank(ranked(["d1", "d2"]), ["d2", "d2", "d1", "d2"])
        assert result.entries == ("d2", "d1")
        assert report.dropped_ids == ()

    def test_empty_proposal_reappends_everything(self):
        result, report = sanitize_rerank(ranked(["d1", "d2"]), [])
        assert result.entries == ("d1", "d2")
        assert report.reappended_ids == ("d1", "d2")

    def test_foreign_ids_reported_once_each(self):
        _, report = sanitize_rerank(ranked(["d1"]), ["x", "y", "x", "d1"])
        assert report.dropped_ids == ("x", "y")

    def test_identity_proposal(self):
        result, report = sanitize_rerank(ranked(["d1", "d2", "d3"]), ["d1", "d2", "d3"])
        assert result.entries == ("d1", "d2", "d3")
        assert report.dropped_ids == () and report.reappended_ids == ()

    def test_matches_oracle(self):
        current = ["a", "b", "c", "d"]
        proposed = ["c", "zz", "a", "c", "e"]
        result, _ = sanitize_rerank(ranked(current), proposed)
        assert list(result.entries) == oracle_sanitize(current, proposed)


current_lists = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3), unique=True, max_size=12
)


@st.composite
def sanitize_case(draw):
    current = draw(current_lists)
    pool = current + ["zz1", "zz2", "zz3"]
    proposed = draw(st.lists(st.sampled_from(pool), max_size=30)) if pool else []
    return current, proposed


@given(sanitize_case())
@settings(max_examples=200)
def test_sanitize_always_returns_exact_permutation(case):
    current, proposed = case
    result, report = sanitize_rerank(ranked(current), proposed)
    assert sorted(result.entries) == sorted(current)
    assert list(result.entries) == oracle_sanitize(current, proposed)
    assert set(report.dropped_ids).isdisjoint(current)
    # reappended ids appear in current-list order at the tail
    tail = result.entries[len(result.entries) - len(report.reappended_ids):]
    assert tuple(report.reappended_ids) == tail


@given(
    st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3), unique=True, max_size=8),
    st.lists(st.text(alphabet="ghijkl", min_size=1, max_size=3), unique=True, max_size=8),
    st.integers(min_value=0, max_value=12),
)
def test_merge_matches_oracle_and_never_deletes(current, retrieved, cap):
    merged = merge_retrieved(ranked(current), ranked(retrieved), cap)
    assert list(merged.entries) == oracle_merge(current, retrieved, cap)
    assert merged.entries[: len(current)] == tuple(current)


class TestExecRefine:
    def test_retrieves_merges_and_advances(self, toy_retriever):
        state = make_state("what is an LLM", ["d1"])
        decision = Decision.refine("LLM large language model definition")
        post = exec_refine(state, decision, toy_retriever, k=10, max_list_size=100)
        assert post.query == "LLM large language model definition"
        assert post.step == 1
        assert post.docs.entries[0] == "d1"  # existing head survives
        assert set(post.docs.entries) >= {"d1", "d3", "d4"}

    def test_never_deletes_existing_ids(self, toy_retriever):
        state = make_state("chess openings", ["d2", "d6"])
        decision = Decision.refine("pasta recipes with olive oil")
        post = exec_refine(state, decision, toy_retriever, k=3, max_list_size=100)
        assert post.docs.entries[:2] == ("d2", "d6")

    def test_requires_refine_decision(self, toy_retriever):
        state = make_state("q", ["d1"])
        with pytest.raises(ValueError):
            exec_refine(state, Decision.stop(), toy_retriever, 10, 100)


class TestExecRerank:
    def test_reorders_and_keeps_query(self):
        state = make_state("the query", ["d1", "d2", "d3"])
        post, report = exec_rerank(state, Decision.rerank(["d3", "d1"]))
        assert post.query == "the query"
        assert post.docs.entries == ("d3", "d1", "d2")
        assert post.step == 1
        assert report.reappended_ids == ("d2",)

    def test_identity_rerank_produces_equal_docs(self):
        state = make_state("q", ["d1", "d2"])
        post, _ = exec_rerank(state, Decision.rerank(["d1", "d2"]))
        assert post.docs.entries == state.docs.entries

    def test_requires_rerank_decision(self):
        state = make_state("q", ["d1"])
        with pytest.raises(ValueError):
            exec_rerank(state, Decision.stop())


@given(
    st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3), unique=True, min_size=1, max_size=8),
    st.data(),
)
def test_exec_rerank_preserves_query_bytes(current, data):
    query = "  padded  query "
    state = make_state(query, current)
    proposal = data.draw(st.lists(st.sampled_from(current + ["zz"]), min_size=1, max_size=16))
    post, _ = exec_rerank(state, Decision.rerank(proposal))
    assert post.query == query  # byte-for-byte, padding intact
