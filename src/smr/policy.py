"""Prompt-driven decision policy.

Renders the loop state into the decision prompt, sends it to a chat
backend, and parses the reply into a Decision.  Malformed replies are
retried at stepwise-higher temperatures; when every attempt fails the
policy falls back to a stop decision rather than crashing the run.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from .core import Decision, Document, ReasoningState, require_ints, temperature_for_attempt
from .errors import DecisionParseError, UnknownDocumentError
from .llm import ChatBackend, ChatRequest

_ACTION_REFINE = "refine query"
_ACTION_RERANK = "re-rank"
_ACTION_STOP = "stop"


# One decision-call policy for every run: attempt i runs at
# temperature_for_attempt(i), each document is cut at DOC_SNIPPET_CHARS
# characters, and each call asks for at most MAX_OUTPUT_TOKENS output tokens.
DOC_SNIPPET_CHARS = 2000
MAX_OUTPUT_TOKENS = 1024


@dataclass(frozen=True)
class PolicyConfig:
    """The retry budget; the schedule must stay inside [0, 1]."""

    max_attempts: int = 6

    def __post_init__(self) -> None:
        require_ints(self, ("max_attempts",))
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        top = temperature_for_attempt(self.max_attempts - 1)
        if top > 1.0:
            raise ValueError(f"escalation schedule exceeds temperature 1.0 (tops out at {top})")


@functools.cache
def load_policy_prompt() -> str:
    """The decision prompt, the packaged asset, read once."""
    return resources.files("smr").joinpath("prompts/decision_policy.txt").read_text(encoding="utf-8")


# The most rendered lines _pair keeps.  This holds every document of a
# 16k-document corpus; a bound near batch_size * max_list_size would evict
# lines that the next step renders again.  Worst-case memory: a line has at
# most 6 * (len(doc_id) + DOC_SNIPPET_CHARS) + 12 characters (json.dumps
# escapes a control character to six) of up to 4 bytes each, so a full cache
# holds about 34 MB of plain text and at most about 790 MB.  The keys also keep
# their documents' texts alive while their lines are cached.
_PAIR_CACHE_LINES = 16384


@functools.lru_cache(maxsize=_PAIR_CACHE_LINES)
def _pair(doc_id: str, text: str) -> str:
    """One rendered ``    ("<id>", "<snippet>")`` line, without its separator."""
    snippet = text[:DOC_SNIPPET_CHARS]
    return f"    ({json.dumps(doc_id, ensure_ascii=False)}, {json.dumps(snippet, ensure_ascii=False)})"


def render_policy_prompt(state: ReasoningState, doc_store: Mapping[str, Document]) -> tuple[str, str]:
    """Build (system_text, user_text) for a decision call.

    The user text mirrors the input structure the prompt documents: the
    current query plus (docid, contents) pairs in ranked order.  Document
    contents are cut at DOC_SNIPPET_CHARS characters, with no ellipsis
    marker.  Each pair is rendered once per (doc_id, text) and reused from
    a bounded cache afterwards.
    """
    system_text = load_policy_prompt()
    pairs = []
    for doc_id in state.docs.entries:
        doc = doc_store.get(doc_id)
        if doc is None:
            raise UnknownDocumentError(f"ranked list references unknown doc_id {doc_id!r}")
        pairs.append(_pair(doc_id, doc.text))
    query = json.dumps(state.query, ensure_ascii=False)
    retrieved = "[\n" + ",\n".join(pairs) + "\n]" if pairs else "[]"
    return system_text, f'{{\n"query": {query},\n"retrieved": {retrieved}\n}}'


_DECODER = json.JSONDecoder()


def _first_json_object(raw: str) -> dict:
    """Extract the first balanced JSON object from free-form model output.

    Tolerates code fences and surrounding prose by scanning for '{' and
    attempting a decode at each candidate position.
    """
    idx = raw.find("{")
    while idx != -1:
        try:
            value, _end = _DECODER.raw_decode(raw, idx)
        except ValueError:
            idx = raw.find("{", idx + 1)
            continue
        if isinstance(value, dict):
            return value
        idx = raw.find("{", idx + 1)
    raise DecisionParseError("no JSON object found in model output")


def parse_decision(raw: str) -> Decision:
    """Interpret model output as a Decision.

    Accepts the three documented output shapes.  Unknown actions, missing
    or empty payloads, and non-string id lists are all parse errors; extra
    fields are ignored.  A reason is kept when present on refine/rerank and
    discarded on stop, which carries no payload.
    """
    obj = _first_json_object(raw)
    action_raw = obj.get("action")
    if not isinstance(action_raw, str):
        raise DecisionParseError("decision object has no string 'action' field")
    action = action_raw.strip().lower()
    reason = obj.get("reason")
    if not isinstance(reason, str):
        reason = None
    if action == _ACTION_REFINE:
        refined = obj.get("refined_query")
        if not isinstance(refined, str) or not refined.strip():
            raise DecisionParseError("refine decision lacks a non-empty 'refined_query'")
        return Decision.refine(refined, reason=reason)
    if action == _ACTION_RERANK:
        reranked = obj.get("reranked")
        if not isinstance(reranked, list) or not reranked:
            raise DecisionParseError("rerank decision lacks a non-empty 'reranked' list")
        if not all(isinstance(doc_id, str) for doc_id in reranked):
            raise DecisionParseError("'reranked' must contain only strings")
        return Decision.rerank(reranked, reason=reason)
    if action == _ACTION_STOP:
        return Decision.stop()
    raise DecisionParseError(f"unknown action: {action_raw!r}")


@dataclass(frozen=True)
class DecisionOutcome:
    """What decide() produced, with full token cost across all attempts.

    fallback is set when every attempt failed to parse and the stop
    decision was synthesized rather than chosen by the model.
    """

    decision: Decision
    output_tokens: int
    temperature_used: float
    fallback: bool = False


def decide(
    state: ReasoningState,
    doc_store: Mapping[str, Document],
    backend: ChatBackend,
    config: PolicyConfig | None = None,
) -> DecisionOutcome:
    """Ask the backend for the next action, escalating temperature on failure.

    Attempt i runs at temperature_for_attempt(i).  Tokens from failed attempts
    still count: the model generated them.  Transport errors propagate
    immediately; only parse failures are retried.  When all attempts fail,
    the outcome is a synthesized stop with fallback=True.
    """
    cfg = config or PolicyConfig()
    system_text, user_text = render_policy_prompt(state, doc_store)
    total_tokens = 0
    temperature = 0.0
    for attempt in range(cfg.max_attempts):
        temperature = temperature_for_attempt(attempt)
        request = ChatRequest(
            system_text=system_text,
            user_text=user_text,
            temperature=temperature,
            max_output_tokens=MAX_OUTPUT_TOKENS,
        )
        response = backend.complete(request)
        total_tokens += response.output_tokens
        try:
            decision = parse_decision(response.text)
        except DecisionParseError:
            continue
        return DecisionOutcome(decision, total_tokens, temperature, fallback=False)
    return DecisionOutcome(Decision.stop(), total_tokens, temperature, fallback=True)
