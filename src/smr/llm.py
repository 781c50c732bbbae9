"""Chat backends and token accounting.

Two interchangeable backends implement ``complete(request)``: an HTTP
client for chat-completions style endpoints, and a scripted backend that
replays canned responses for deterministic offline runs.  Only generated
(output) tokens are ever counted; prompt tokens are deliberately ignored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np
import requests

from .errors import EndpointConfigError, ScriptExhaustedError, TransportError

DEFAULT_TIMEOUT = 60.0
DEFAULT_MAX_RETRIES = 3
DEFAULT_BACKOFF_START = 0.5
# Request Timeout and Too Many Requests: the endpoint may accept the same request later.
_TRANSIENT_4XX = (408, 429)


def count_fallback_tokens(text: str) -> int:
    """Whitespace-run token count, used when an endpoint reports no usage."""
    return len(text.split())


@dataclass(frozen=True)
class ChatRequest:
    system_text: str
    user_text: str
    temperature: float
    max_output_tokens: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature must be in [0, 1], got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    output_tokens: int

    def __post_init__(self) -> None:
        if self.output_tokens < 0:
            raise ValueError("output_tokens must be >= 0")


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class ScriptedBackend:
    """Replays a fixed sequence of response texts, one per call.

    Single-consumer: each instance belongs to exactly one trajectory.
    Requests are recorded on ``calls`` so tests can inspect what was sent.
    """

    def __init__(self, steps: Sequence[str]):
        self._steps = tuple(steps)
        self._cursor = 0
        self.calls: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls.append(request)
        if self._cursor >= len(self._steps):
            raise ScriptExhaustedError(
                f"script exhausted after {len(self._steps)} responses"
            )
        text = self._steps[self._cursor]
        self._cursor += 1
        return ChatResponse(text=text, output_tokens=count_fallback_tokens(text))


def _json_headers(api_key: str | None) -> dict[str, str]:
    """Request headers for a JSON endpoint, with a bearer token when a key is set."""
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


def post_json_with_retry(
    url: str,
    payload: dict[str, Any],
    headers: dict[str, str],
    timeout: float = DEFAULT_TIMEOUT,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_start: float = DEFAULT_BACKOFF_START,
) -> dict[str, Any]:
    """POST JSON and return the parsed JSON body.

    Transient failures (connection errors, timeouts, 408, 429, 5xx,
    unparseable bodies) are retried with exponential backoff; any other
    4xx response is a configuration problem and fails immediately.
    """
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        if attempt > 0:
            time.sleep(backoff_start * 2 ** (attempt - 1))
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if 400 <= resp.status_code < 500 and resp.status_code not in _TRANSIENT_4XX:
            raise EndpointConfigError(
                f"endpoint rejected request with HTTP {resp.status_code}: {resp.text[:200]}"
            )
        if resp.status_code != 200:
            last_error = TransportError(f"endpoint returned HTTP {resp.status_code}")
            continue
        try:
            body = resp.json()
        except ValueError as exc:
            last_error = exc
            continue
        if not isinstance(body, dict):
            last_error = TransportError("endpoint returned non-object JSON")
            continue
        return body
    raise TransportError(f"request to {url} failed after {max_retries + 1} attempts: {last_error}")


class HttpBackend:
    """Chat-completions client for an OpenAI-style JSON endpoint."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_start: float = DEFAULT_BACKOFF_START,
    ):
        self.endpoint = endpoint
        self.model = model
        self.headers = _json_headers(api_key)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_start = backoff_start

    def complete(self, request: ChatRequest) -> ChatResponse:
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        messages.append({"role": "user", "content": request.user_text})
        payload = {
            "model": self.model,
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
            "messages": messages,
        }
        body = post_json_with_retry(
            self.endpoint,
            payload,
            self.headers,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff_start=self.backoff_start,
        )
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"endpoint response missing choices[0].message.content: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError("endpoint returned a non-string message content")
        usage = body.get("usage")
        tokens: int | None = None
        if isinstance(usage, dict):
            reported = usage.get("completion_tokens")
            if isinstance(reported, int) and reported >= 0:
                tokens = reported
        if tokens is None:
            tokens = count_fallback_tokens(text)
        return ChatResponse(text=text, output_tokens=tokens)


class HttpEmbedder:
    """Client for an OpenAI-style embeddings endpoint; returns unit vectors."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.endpoint = endpoint
        self.model = model
        self.headers = _json_headers(api_key)
        self.timeout = timeout

    def __call__(self, text: str) -> np.ndarray:
        body = post_json_with_retry(
            self.endpoint,
            {"model": self.model, "input": [text]},
            self.headers,
            timeout=self.timeout,
        )
        try:
            raw = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"embedding response missing data[0].embedding: {exc}") from exc
        vec = np.asarray(raw, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise TransportError("embedding endpoint returned a malformed vector")
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec = vec / norm
        return vec
