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

from .core import Decision, Document, ReasoningState, require_ints
from .errors import ConfigError, DecisionParseError, UnknownDocumentError
from .llm import ChatBackend, ChatRequest
from .records import open_input

_ACTION_REFINE = "refine query"
_ACTION_RERANK = "re-rank"
_ACTION_STOP = "stop"


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs for prompt rendering and the retry-with-escalation loop.

    Attempt i runs at base_temperature + i * temperature_increment, rounded
    to 10 decimal places; the schedule must stay inside [0, 1] end to end.
    """

    base_temperature: float = 0.0
    temperature_increment: float = 0.1
    max_attempts: int = 6
    doc_snippet_chars: int = 2000
    max_output_tokens: int = 1024
    prompt_path: str | None = None

    def __post_init__(self) -> None:
        require_ints(self, ("max_attempts", "doc_snippet_chars", "max_output_tokens"))
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.doc_snippet_chars < 1:
            raise ValueError("doc_snippet_chars must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.base_temperature < 0.0 or self.temperature_increment < 0.0:
            raise ValueError("temperatures must be non-negative")
        top = self.temperature_for_attempt(self.max_attempts - 1)
        if top > 1.0:
            raise ValueError(f"escalation schedule exceeds temperature 1.0 (tops out at {top})")

    def temperature_for_attempt(self, attempt: int) -> float:
        # Rounded so that 0.1 * 3 is sent and traced as 0.3, not 0.30000000000000004.
        return round(self.base_temperature + attempt * self.temperature_increment, 10)


@functools.cache
def load_policy_prompt(prompt_path: str | None = None) -> str:
    """The decision prompt: the packaged asset, or an override file, read once per path."""
    if prompt_path is not None:
        with open_input(prompt_path, "prompt", ConfigError) as fh:
            return fh.read()
    return resources.files("smr").joinpath("prompts/decision_policy.txt").read_text(encoding="utf-8")


# The most rendered lines _pair keeps.  This holds every document of a
# 16k-document corpus at one snippet length; a bound near batch_size *
# max_list_size would evict lines that the next step renders again.
# Worst-case memory: a line has at most 6 * (len(doc_id) + doc_snippet_chars)
# + 12 characters (json.dumps escapes a control character to six) of up to 4
# bytes each, so at the default 2000-character snippets a full cache holds
# about 34 MB of plain text and at most about 790 MB.  The keys also keep
# their documents' texts alive while their lines are cached.
_PAIR_CACHE_LINES = 16384


@functools.lru_cache(maxsize=_PAIR_CACHE_LINES)
def _pair(doc_id: str, text: str, doc_snippet_chars: int) -> str:
    """One rendered ``    ("<id>", "<snippet>")`` line, without its separator."""
    snippet = text[:doc_snippet_chars]
    return f"    ({json.dumps(doc_id, ensure_ascii=False)}, {json.dumps(snippet, ensure_ascii=False)})"


def render_policy_prompt(
    state: ReasoningState,
    doc_store: Mapping[str, Document],
    config: PolicyConfig | None = None,
) -> tuple[str, str]:
    """Build (system_text, user_text) for a decision call.

    The user text mirrors the input structure the prompt documents: the
    current query plus (docid, contents) pairs in ranked order.  Document
    contents are cut at doc_snippet_chars characters, with no ellipsis
    marker.  Each pair is rendered once per (doc_id, text,
    doc_snippet_chars) and reused from a bounded cache afterwards.
    """
    cfg = config or PolicyConfig()
    system_text = load_policy_prompt(cfg.prompt_path)
    pairs = []
    for doc_id in state.docs.entries:
        doc = doc_store.get(doc_id)
        if doc is None:
            raise UnknownDocumentError(f"ranked list references unknown doc_id {doc_id!r}")
        pairs.append(_pair(doc_id, doc.text, cfg.doc_snippet_chars))
    query = json.dumps(state.query, ensure_ascii=False)
    retrieved = "[\n" + ",\n".join(pairs) + "\n]" if pairs else "[]"
    return system_text, f'{{\n"query": {query},\n"retrieved": {retrieved}\n}}'


def _first_json_object(raw: str) -> dict:
    """Extract the first balanced JSON object from free-form model output.

    Tolerates code fences and surrounding prose by scanning for '{' and
    attempting a decode at each candidate position.
    """
    decoder = json.JSONDecoder()
    idx = raw.find("{")
    while idx != -1:
        try:
            value, _end = decoder.raw_decode(raw, idx)
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

    Attempt i runs at base + i * increment.  Tokens from failed attempts
    still count: the model generated them.  Transport errors propagate
    immediately; only parse failures are retried.  When all attempts fail,
    the outcome is a synthesized stop with fallback=True.
    """
    cfg = config or PolicyConfig()
    system_text, user_text = render_policy_prompt(state, doc_store, cfg)
    total_tokens = 0
    temperature = cfg.base_temperature
    for attempt in range(cfg.max_attempts):
        temperature = cfg.temperature_for_attempt(attempt)
        request = ChatRequest(
            system_text=system_text,
            user_text=user_text,
            temperature=temperature,
            max_output_tokens=cfg.max_output_tokens,
        )
        response = backend.complete(request)
        total_tokens += response.output_tokens
        try:
            decision = parse_decision(response.text)
        except DecisionParseError:
            continue
        return DecisionOutcome(decision, total_tokens, temperature, fallback=False)
    return DecisionOutcome(Decision.stop(), total_tokens, temperature, fallback=True)
