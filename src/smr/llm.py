"""Chat backends and token accounting.

Two interchangeable backends implement ``complete(request)``: an HTTP
client for chat-completions style endpoints, and a scripted backend that
replays canned responses for deterministic offline runs.  Only generated
(output) tokens are ever counted; prompt tokens are deliberately ignored.
"""

from __future__ import annotations

import email.utils
import functools
import http.client
import json
import logging
import random
import ssl
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Protocol, Sequence

import numpy as np

from .errors import EndpointConfigError, ScriptExhaustedError, TransportError
from .retrieval import json_vector

# The transport policy, read at call time: seconds per connect and per read
# (and the cap on a Retry-After wait), retries after the first attempt, and the
# first backoff, doubled on each later retry; each backoff sleeps a uniform
# draw from half to all of its delay.
TIMEOUT = 60.0
MAX_RETRIES = 3
BACKOFF_START = 0.5
# Request Timeout and Too Many Requests: the endpoint may accept the same request later.
_TRANSIENT_4XX = (408, 429)
# Statuses whose Retry-After header replaces the backoff (RFC 9110 section 10.2.3).
_RETRY_AFTER_STATUSES = (408, 429, 503)

logger = logging.getLogger("smr.llm")


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


def _check_endpoint(url: str) -> str:
    """Return ``url`` if it is an http(s) URL with a host; otherwise fail before any request."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises ValueError on a non-numeric or out-of-range port
    except ValueError as exc:
        raise EndpointConfigError(f"endpoint URL {url!r} is malformed: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise EndpointConfigError(f"endpoint URL {url!r} must be http:// or https:// with a host")
    return url


def _retry_after(reply: http.client.HTTPMessage) -> float | None:
    """Seconds a ``Retry-After`` header asks for, clamped to [0, TIMEOUT]; None if absent or unreadable.

    RFC 9110 section 10.2.3 allows delta-seconds or an HTTP-date.
    """
    value = reply.get("Retry-After", "").strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(seconds, 0.0), TIMEOUT)


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    """The opener every POST goes through, built at the first: it reads the proxies then.

    It holds no reply processor, so it raises for no status and follows no
    redirect; a scheme it has no handler for (a socks5 proxy, say) fails.
    """
    opener = urllib.request.OpenerDirector()
    for handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(),
                    urllib.request.HTTPHandler(), urllib.request.HTTPSHandler()):
        opener.add_handler(handler)
    return opener


def post_json_with_retry(url: str, payload: dict[str, Any], headers: dict[str, str]) -> dict[str, Any]:
    """POST JSON and return the parsed JSON body.

    Transient failures (connection errors, timeouts, 408, 429, 5xx, any
    other non-200 status, unparseable bodies) are retried with exponential
    backoff, or after the wait a 408, 429 or 503 names in ``Retry-After``;
    a redirect, any other 4xx response or a certificate that fails
    verification is a configuration problem and fails immediately.
    """
    data = json.dumps(payload).encode("utf-8")
    attempts = MAX_RETRIES + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        delay = BACKOFF_START * 2**attempt * random.uniform(0.5, 1.0)
        # A new request each attempt: a proxy handler rewrites the one it sends.
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with _opener().open(request, timeout=TIMEOUT) as resp:
                status, raw, reply = resp.status, resp.read(), resp.headers
        except ValueError as exc:  # http.client refused a header before sending anything
            raise EndpointConfigError(f"request to {url} could not be sent: {exc}") from None
        except (OSError, http.client.HTTPException) as exc:
            reason = getattr(exc, "reason", None)  # urllib raises a failed handshake as a URLError
            if isinstance(reason, ssl.SSLCertVerificationError):
                raise EndpointConfigError(f"{url}: certificate verification failed: {reason}") from None
            last_error = exc
        else:
            if 300 <= status < 500 and status not in _TRANSIENT_4XX:
                text = raw.decode("utf-8", errors="replace")[:200]
                if status < 400:
                    text = f"redirect to {reply.get('Location')!r} not followed"
                raise EndpointConfigError(f"endpoint rejected request with HTTP {status}: {text}")
            if status != 200:
                last_error = TransportError(f"endpoint returned HTTP {status}")
                if status in _RETRY_AFTER_STATUSES and (wait := _retry_after(reply)) is not None:
                    delay = wait
            else:
                try:
                    body = json.loads(raw)
                except ValueError as exc:
                    last_error = exc
                else:
                    if isinstance(body, dict):
                        return body
                    last_error = TransportError("endpoint returned non-object JSON")
        if attempt + 1 == attempts:
            break
        logger.warning(
            "POST %s: attempt %d/%d failed (%s: %s); retrying in %.2f s",
            url, attempt + 1, attempts, type(last_error).__name__, last_error, delay,
        )
        time.sleep(delay)
    raise TransportError(f"request to {url} failed after {attempts} attempts: {last_error}")


class _JsonClient:
    """Endpoint, model and JSON headers (a bearer token when a key is set) for both clients."""

    def __init__(self, endpoint: str, model: str, api_key: str | None = None):
        self.endpoint = _check_endpoint(endpoint)
        self.model = model
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"


class HttpBackend(_JsonClient):
    """Chat-completions client for an OpenAI-style JSON endpoint."""

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
        body = post_json_with_retry(self.endpoint, payload, self.headers)
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
            if type(reported) is int and reported >= 0:
                tokens = reported
        if tokens is None:
            tokens = count_fallback_tokens(text)
        return ChatResponse(text=text, output_tokens=tokens)


class HttpEmbedder(_JsonClient):
    """Client for an OpenAI-style embeddings endpoint; returns the vector as sent."""

    def __call__(self, text: str) -> np.ndarray:
        body = post_json_with_retry(self.endpoint, {"model": self.model, "input": [text]}, self.headers)
        try:
            raw = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"embedding response missing data[0].embedding: {exc}") from exc
        vec = json_vector(raw)
        if vec is None or not np.isfinite(vec).all():
            raise TransportError("embedding endpoint returned a malformed vector")
        return np.asarray(vec, dtype=np.float64)
