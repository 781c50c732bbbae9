from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smr.core import (
    Action,
    Decision,
    Document,
    RankedList,
    ReasoningState,
    StopCause,
    Trajectory,
    Transition,
    state_equivalent,
)


def make_state(query: str, ids: tuple[str, ...], step: int = 0) -> ReasoningState:
    return ReasoningState(query=query, docs=RankedList(entries=ids), step=step)


class TestDocument:
    def test_valid(self):
        doc = Document(doc_id="d1", text="hello")
        assert doc.doc_id == "d1"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Document(doc_id="", text="x")

    def test_newline_in_id_rejected(self):
        with pytest.raises(ValueError, match="newline"):
            Document(doc_id="d\n1", text="x")


class TestRankedList:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="d1"):
            RankedList(entries=("d1", "d2", "d1"))

    def test_empty_is_fine(self):
        assert len(RankedList(entries=())) == 0

    def test_list_input_coerced_to_tuple(self):
        ranked = RankedList(entries=["d1", "d2"])
        assert ranked.entries == ("d1", "d2")


class TestReasoningState:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="query"):
            make_state("", ("d1",))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            make_state("q", ("d1",), step=-1)


class TestStateEquivalent:
    def test_same_query_same_docs(self):
        assert state_equivalent(make_state("q", ("d1", "d2")), make_state("q", ("d1", "d2")))

    def test_whitespace_trim_only(self):
        assert state_equivalent(make_state("  q \t", ("d1",)), make_state("q", ("d1",)))

    def test_interior_whitespace_is_significant(self):
        assert not state_equivalent(make_state("a  b", ("d1",)), make_state("a b", ("d1",)))

    def test_case_is_significant(self):
        assert not state_equivalent(make_state("Q", ("d1",)), make_state("q", ("d1",)))

    def test_doc_order_matters(self):
        assert not state_equivalent(make_state("q", ("d1", "d2")), make_state("q", ("d2", "d1")))

    def test_step_is_ignored(self):
        assert state_equivalent(make_state("q", ("d1",), step=0), make_state("q", ("d1",), step=3))


queries = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
).filter(lambda s: s.strip())
paddings = st.text(alphabet=" \t\n", max_size=4)
id_tuples = st.lists(
    st.text(alphabet="abcdefg123", min_size=1, max_size=4), unique=True, max_size=6
).map(tuple)


@given(queries, id_tuples, paddings, paddings)
def test_equivalence_ignores_surrounding_whitespace(query, ids, left, right):
    assert state_equivalent(make_state(left + query + right, ids), make_state(query, ids))


@given(queries, id_tuples)
def test_equivalence_is_reflexive(query, ids):
    state = make_state(query, ids)
    assert state_equivalent(state, state)


@given(queries, queries, id_tuples, id_tuples)
def test_equivalence_is_symmetric(qa, qb, ids_a, ids_b):
    a, b = make_state(qa, ids_a), make_state(qb, ids_b)
    assert state_equivalent(a, b) == state_equivalent(b, a)


@given(queries, id_tuples, paddings, paddings, paddings)
def test_equivalence_is_transitive_across_paddings(query, ids, p1, p2, p3):
    a = make_state(p1 + query + p1, ids)
    b = make_state(p2 + query + p2, ids)
    c = make_state(p3 + query + p3, ids)
    if state_equivalent(a, b) and state_equivalent(b, c):
        assert state_equivalent(a, c)


class TestDecision:
    def test_refine_needs_query(self):
        with pytest.raises(ValueError):
            Decision(Action.REFINE)
        with pytest.raises(ValueError):
            Decision(Action.REFINE, refined_query="   ")

    def test_rerank_needs_ids(self):
        with pytest.raises(ValueError):
            Decision(Action.RERANK)
        with pytest.raises(ValueError):
            Decision(Action.RERANK, reranked_ids=())

    def test_stop_carries_nothing(self):
        with pytest.raises(ValueError):
            Decision(Action.STOP, refined_query="q")
        with pytest.raises(ValueError):
            Decision(Action.STOP, reason="done")
        assert Decision.stop().reason is None

    def test_payloads_are_exclusive(self):
        with pytest.raises(ValueError):
            Decision(Action.REFINE, refined_query="q", reranked_ids=("d1",))

    def test_constructors(self):
        assert Decision.refine("better query").action is Action.REFINE
        assert Decision.rerank(["d2", "d1"]).reranked_ids == ("d2", "d1")

    def test_rerank_proposal_may_repeat_ids(self):
        # Sanitization, not the decision type, enforces uniqueness.
        decision = Decision.rerank(["d1", "d1", "d9"])
        assert decision.reranked_ids == ("d1", "d1", "d9")


class TestTransition:
    def test_stop_must_not_change_state(self):
        pre = make_state("q", ("d1",))
        other = make_state("q", ("d1", "d2"))
        with pytest.raises(ValueError):
            Transition(Decision.stop(), pre, other, 0, 0.0)

    def test_non_stop_must_advance_step(self):
        pre = make_state("q", ("d1",))
        same_step = make_state("q2", ("d1",))
        with pytest.raises(ValueError, match="advance"):
            Transition(Decision.refine("q2"), pre, same_step, 1, 0.0)

    def test_negative_tokens_rejected(self):
        pre = make_state("q", ("d1",))
        with pytest.raises(ValueError):
            Transition(Decision.stop(), pre, pre, -1, 0.0)

    def test_valid_refine_transition(self):
        pre = make_state("q", ("d1",))
        post = make_state("q2", ("d1",), step=1)
        tr = Transition(Decision.refine("q2"), pre, post, 12, 0.1)
        assert tr.output_tokens == 12


class TestTrajectory:
    def test_stop_only_final(self):
        s0 = make_state("q", ("d1",))
        s1 = make_state("q2", ("d1",), step=1)
        stop_tr = Transition(Decision.stop(), s0, s0, 1, 0.0)
        refine_tr = Transition(Decision.refine("q2"), s0, s1, 1, 0.0)
        with pytest.raises(ValueError, match="final"):
            Trajectory(s0, (stop_tr, refine_tr), StopCause.POLICY_STOP)

    def test_initial_must_be_step_zero(self):
        s1 = make_state("q", ("d1",), step=1)
        with pytest.raises(ValueError):
            Trajectory(s1, (), StopCause.STEP_CAP)

    def test_counters(self):
        s0 = make_state("q", ("d1",))
        s1 = make_state("q2", ("d1",), step=1)
        refine_tr = Transition(Decision.refine("q2"), s0, s1, 10, 0.0)
        stop_tr = Transition(Decision.stop(), s1, s1, 5, 0.0)
        trajectory = Trajectory(s0, (refine_tr, stop_tr), StopCause.POLICY_STOP)
        assert trajectory.step_count == 1
        assert trajectory.total_output_tokens == 15
        assert trajectory.final_state == s1

    def test_empty_trajectory_final_state_is_initial(self):
        s0 = make_state("q", ("d1",))
        trajectory = Trajectory(s0, (), StopCause.STEP_CAP)
        assert trajectory.final_state is s0


def test_stop_cause_wire_values():
    assert {c.value for c in StopCause} == {
        "policy-stop",
        "equivalence-stop",
        "step-cap",
        "policy-failure-fallback",
    }


def test_action_wire_values():
    assert [a.value for a in (Action.REFINE, Action.RERANK, Action.STOP)] == [
        "refine",
        "rerank",
        "stop",
    ]
