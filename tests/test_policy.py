from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smr.core import Action, Decision, Document, RankedList, ReasoningState
from smr.errors import DecisionParseError, ScriptExhaustedError, UnknownDocumentError
from smr.llm import ScriptedBackend
from smr.policy import (
    PolicyConfig,
    decide,
    load_policy_prompt,
    parse_decision,
    render_policy_prompt,
)

from conftest import refine_json, rerank_json, stop_json
from oracles import format_decision, reference_render_user_text


def make_state(query: str, ids: list[str]) -> ReasoningState:
    return ReasoningState(query=query, docs=RankedList(tuple(ids)), step=0)


def make_store(**texts: str) -> dict[str, Document]:
    return {doc_id: Document(doc_id, text) for doc_id, text in texts.items()}


class TestPolicyConfig:
    def test_defaults(self):
        cfg = PolicyConfig()
        assert cfg.base_temperature == 0.0
        assert cfg.temperature_increment == 0.1
        assert cfg.max_attempts == 6
        assert cfg.doc_snippet_chars == 2000
        assert cfg.max_output_tokens == 1024

    def test_schedule_must_stay_in_unit_interval(self):
        with pytest.raises(ValueError, match="1.0"):
            PolicyConfig(base_temperature=0.5, temperature_increment=0.2, max_attempts=5)

    def test_default_schedule_tops_out_at_half(self):
        cfg = PolicyConfig()
        assert cfg.temperature_for_attempt(cfg.max_attempts - 1) == pytest.approx(0.5)

    def test_default_schedule_is_exact(self, toy_retriever):
        cfg = PolicyConfig()
        assert [cfg.temperature_for_attempt(i) for i in range(cfg.max_attempts)] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        backend = ScriptedBackend(["junk"] * 6)
        decide(make_state("q", ["d1"]), toy_retriever.doc_store, backend, cfg)
        assert [c.temperature for c in backend.calls] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    def test_schedule_ending_at_one_is_accepted_and_sendable(self, toy_retriever):
        # 0.7 + 3 * 0.1 is 1.0000000000000002 unrounded, which ChatRequest rejects.
        cfg = PolicyConfig(base_temperature=0.7, temperature_increment=0.1, max_attempts=4)
        assert [cfg.temperature_for_attempt(i) for i in range(4)] == [0.7, 0.8, 0.9, 1.0]
        outcome = decide(make_state("q", ["d1"]), toy_retriever.doc_store, ScriptedBackend(["junk"] * 4), cfg)
        assert outcome.fallback is True
        assert outcome.temperature_used == 1.0

    def test_attempt_temperatures_are_arithmetic(self):
        cfg = PolicyConfig(base_temperature=0.1, temperature_increment=0.05, max_attempts=4)
        assert [cfg.temperature_for_attempt(i) for i in range(4)] == pytest.approx(
            [0.1, 0.15, 0.2, 0.25]
        )


class TestPromptAsset:
    def test_system_prompt_head_and_tail(self):
        prompt = load_policy_prompt()
        assert prompt.startswith(
            "You are a highly intelligent artificial agent responsible for managing a search system."
        )
        assert '"action": "stop"' in prompt
        assert prompt.rstrip().endswith("```")

    def test_documents_all_three_actions(self):
        prompt = load_policy_prompt()
        assert '"action": "refine query"' in prompt
        assert '"action": "re-rank"' in prompt
        assert "### Decision policy (check in order):" in prompt

    def test_override_path_wins(self, tmp_path):
        path = tmp_path / "alt.txt"
        path.write_text("custom instructions")
        assert load_policy_prompt(str(path)) == "custom instructions"


class TestRenderPolicyPrompt:
    def test_user_text_structure(self):
        state = make_state("my query", ["d1", "d2"])
        store = make_store(d1="first doc", d2="second doc")
        system_text, user_text = render_policy_prompt(state, store)
        assert system_text == load_policy_prompt()
        assert user_text == (
            "{\n"
            '"query": "my query",\n'
            '"retrieved": [\n'
            '    ("d1", "first doc"),\n'
            '    ("d2", "second doc")\n'
            "]\n"
            "}"
        )

    def test_empty_document_list(self):
        _, user_text = render_policy_prompt(make_state("q", []), {})
        assert user_text == '{\n"query": "q",\n"retrieved": []\n}'

    def test_rank_order_preserved(self):
        state = make_state("q", ["d2", "d1"])
        store = make_store(d1="one", d2="two")
        _, user_text = render_policy_prompt(state, store)
        assert user_text.index('"d2"') < user_text.index('"d1"')

    def test_snippet_truncation_without_ellipsis(self):
        state = make_state("q", ["d1"])
        store = make_store(d1="x" * 5000)
        _, user_text = render_policy_prompt(state, store, PolicyConfig(doc_snippet_chars=2000))
        assert '"' + "x" * 2000 + '"' in user_text
        assert "x" * 2001 not in user_text
        assert "..." not in user_text  # cut silently, no ellipsis marker

    def test_special_characters_escaped(self):
        state = make_state('quote " and \\ slash', ["d1"])
        store = make_store(d1='text with "quotes"\nand newline')
        _, user_text = render_policy_prompt(state, store)
        for line in user_text.splitlines():
            assert "\r" not in line
        # json escaping keeps each pair on one rendered line
        assert '\\"quotes\\"' in user_text

    def test_missing_document_is_an_error(self):
        state = make_state("q", ["ghost"])
        with pytest.raises(UnknownDocumentError, match="ghost"):
            render_policy_prompt(state, {})

    def test_changed_text_or_snippet_length_is_rendered_afresh(self):
        state = make_state("q", ["d1"])
        _, first = render_policy_prompt(state, make_store(d1="old text"), PolicyConfig(doc_snippet_chars=5))
        _, text_changed = render_policy_prompt(state, make_store(d1="new text"), PolicyConfig(doc_snippet_chars=5))
        _, longer = render_policy_prompt(state, make_store(d1="new text"), PolicyConfig(doc_snippet_chars=7))
        assert '("d1", "old t")' in first
        assert '("d1", "new t")' in text_changed
        assert '("d1", "new tex")' in longer

    def test_second_render_of_a_state_encodes_only_the_query(self, monkeypatch):
        store = {f"d{i}": Document(f"d{i}", f"unique text {i} for the encode count") for i in range(100)}
        state = make_state("q", list(store))
        _, first = render_policy_prompt(state, store)
        encoded = []
        real_dumps = json.dumps

        def counting_dumps(obj, **kwargs):
            encoded.append(obj)
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        _, second = render_policy_prompt(state, store)
        assert second == first
        assert encoded == ["q"]


# Characters json.dumps escapes or stores wide: quotes, backslashes, line
# breaks, other control characters, and BMP and non-BMP code points.
_TRICKY_CHARS = st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "😀", "𝄞"])
_texts = st.text(st.one_of(_TRICKY_CHARS, st.characters(blacklist_categories=("Cs",))), max_size=40)
_doc_ids = _texts.filter(lambda s: s and "\n" not in s and "\r" not in s)


def _flip_first(text: str) -> str:
    """text with its first character changed, so every snippet of it changes."""
    return chr(ord(text[0]) ^ 1) + text[1:] if text else "x"


@settings(max_examples=150)
@given(st.data())
def test_render_is_byte_identical_to_uncached_reference(data):
    query = data.draw(_texts.filter(bool), label="query")
    ids = data.draw(st.lists(_doc_ids, max_size=8, unique=True), label="ids")
    chars = data.draw(st.integers(1, 50), label="doc_snippet_chars")
    state = make_state(query, ids)

    def check(store: dict[str, Document], snippet_chars: int) -> None:
        _, user_text = render_policy_prompt(state, store, PolicyConfig(doc_snippet_chars=snippet_chars))
        assert user_text == reference_render_user_text(query, ids, store, snippet_chars)

    store = {doc_id: Document(doc_id, data.draw(_texts)) for doc_id in ids}
    check(store, chars)
    # The same ids again: with every text changed, then at another snippet length.
    check({doc_id: Document(doc_id, _flip_first(doc.text)) for doc_id, doc in store.items()}, chars)
    check(store, data.draw(st.integers(1, 50).filter(lambda n: n != chars), label="other_chars"))
    if ids:
        # Every line is cached now; a store without one id must still be refused.
        missing = data.draw(st.sampled_from(ids), label="missing")
        with pytest.raises(UnknownDocumentError):
            render_policy_prompt(state, {k: v for k, v in store.items() if k != missing})


class TestParseDecision:
    def test_stop(self):
        assert parse_decision('{"action": "stop"}') == Decision.stop()

    def test_refine(self):
        decision = parse_decision(refine_json("better query", reason="too vague"))
        assert decision.action is Action.REFINE
        assert decision.refined_query == "better query"
        assert decision.reason == "too vague"

    def test_rerank(self):
        decision = parse_decision(rerank_json(["d2", "d1"], reason="swap"))
        assert decision.action is Action.RERANK
        assert decision.reranked_ids == ("d2", "d1")

    def test_code_fences_tolerated(self):
        raw = "```json\n" + refine_json("q2") + "\n```"
        assert parse_decision(raw).refined_query == "q2"

    def test_surrounding_prose_tolerated(self):
        raw = "Sure! Here is my decision:\n" + stop_json() + "\nLet me know."
        assert parse_decision(raw).action is Action.STOP

    def test_action_case_and_padding_tolerated(self):
        assert parse_decision('{"action": " STOP "}').action is Action.STOP

    def test_empty_rerank_list_is_malformed(self):
        with pytest.raises(DecisionParseError, match="reranked"):
            parse_decision('{"action": "re-rank", "reranked": []}')

    def test_non_string_ids_are_malformed(self):
        with pytest.raises(DecisionParseError, match="strings"):
            parse_decision('{"action": "re-rank", "reranked": ["d1", 7]}')

    def test_missing_refined_query_is_malformed(self):
        with pytest.raises(DecisionParseError, match="refined_query"):
            parse_decision('{"action": "refine query"}')

    def test_whitespace_refined_query_is_malformed(self):
        with pytest.raises(DecisionParseError, match="refined_query"):
            parse_decision('{"action": "refine query", "refined_query": "  "}')

    def test_unknown_action(self):
        with pytest.raises(DecisionParseError, match="unknown action"):
            parse_decision('{"action": "explode"}')

    def test_no_json_at_all(self):
        with pytest.raises(DecisionParseError, match="no JSON object"):
            parse_decision("I refuse to answer in JSON")

    def test_truncated_json(self):
        with pytest.raises(DecisionParseError):
            parse_decision('{"action": "refine query", "refined_query": "unterminated')

    def test_stop_discards_reason(self):
        decision = parse_decision('{"action": "stop", "reason": "all good"}')
        assert decision == Decision.stop()

    def test_non_string_reason_ignored(self):
        decision = parse_decision('{"action": "refine query", "refined_query": "q", "reason": 42}')
        assert decision.reason is None

    def test_first_object_wins(self):
        raw = stop_json() + "\n" + refine_json("second")
        assert parse_decision(raw).action is Action.STOP

    def test_nested_braces_inside_strings(self):
        raw = '{"action": "refine query", "refined_query": "find {braces} usage", "reason": "x"}'
        assert parse_decision(raw).refined_query == "find {braces} usage"


reasons = st.one_of(st.none(), st.text(min_size=1, max_size=20))
refine_decisions = st.builds(
    Decision.refine,
    st.text(min_size=1, max_size=30).filter(lambda s: s.strip()),
    reason=reasons,
)
rerank_decisions = st.builds(
    Decision.rerank,
    st.lists(st.text(alphabet="abcd19", min_size=1, max_size=4), min_size=1, max_size=8),
    reason=reasons,
)
any_decision = st.one_of(refine_decisions, rerank_decisions, st.just(Decision.stop()))


@given(any_decision)
def test_format_parse_round_trip(decision):
    assert parse_decision(format_decision(decision)) == decision


class TestDecide:
    def test_single_valid_attempt_at_base_temperature(self, toy_retriever):
        state = make_state("what is an LLM", ["d1"])
        backend = ScriptedBackend([stop_json()])
        outcome = decide(state, toy_retriever.doc_store, backend)
        assert outcome.decision == Decision.stop()
        assert outcome.temperature_used == 0.0
        assert outcome.fallback is False
        assert backend.calls[0].temperature == 0.0

    def test_escalation_temperatures_and_token_sum(self, toy_retriever):
        state = make_state("q", ["d1"])
        backend = ScriptedBackend(["junk one", "junk two three", refine_json("expanded")])
        outcome = decide(state, toy_retriever.doc_store, backend)
        assert outcome.decision.refined_query == "expanded"
        assert [c.temperature for c in backend.calls] == [0.0, 0.1, 0.2]
        assert outcome.temperature_used == 0.2
        # 2 + 3 tokens of failures plus 1 json blob of the success
        assert outcome.output_tokens == 5 + len(refine_json("expanded").split())

    def test_exhaustion_falls_back_to_stop(self, toy_retriever):
        state = make_state("q", ["d1"])
        backend = ScriptedBackend(["junk"] * 6)
        outcome = decide(state, toy_retriever.doc_store, backend)
        assert outcome.decision == Decision.stop()
        assert outcome.fallback is True
        assert outcome.temperature_used == pytest.approx(0.5)
        assert len(backend.calls) == 6
        assert outcome.output_tokens == 6  # one token per failed attempt

    def test_transport_errors_propagate(self, toy_retriever):
        state = make_state("q", ["d1"])
        backend = ScriptedBackend([])  # exhausts immediately
        with pytest.raises(ScriptExhaustedError):
            decide(state, toy_retriever.doc_store, backend)

    def test_requests_carry_rendered_prompt(self, toy_retriever):
        state = make_state("what is an LLM", ["d1"])
        backend = ScriptedBackend([stop_json()])
        decide(state, toy_retriever.doc_store, backend)
        request = backend.calls[0]
        assert request.system_text == load_policy_prompt()
        assert '"what is an LLM"' in request.user_text
        assert request.max_output_tokens == 1024

    def test_custom_attempt_budget(self, toy_retriever):
        state = make_state("q", ["d1"])
        backend = ScriptedBackend(["junk", "junk"])
        outcome = decide(state, toy_retriever.doc_store, backend, PolicyConfig(max_attempts=2))
        assert outcome.fallback is True
        assert len(backend.calls) == 2
