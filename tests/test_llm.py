from __future__ import annotations

import json
import logging
import os
import re
import subprocess
import sys
import textwrap
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest

import smr
from smr.errors import EndpointConfigError, ScriptExhaustedError, TransportError
from smr.llm import (
    ChatRequest,
    ChatResponse,
    HttpBackend,
    HttpEmbedder,
    ScriptedBackend,
    count_fallback_tokens,
)


@pytest.fixture
def sleeps(monkeypatch):
    """Record each backoff instead of sleeping it."""
    recorded: list[float] = []
    monkeypatch.setattr("smr.llm.time.sleep", recorded.append)
    return recorded


def make_request(**overrides) -> ChatRequest:
    kwargs = dict(system_text="sys", user_text="user", temperature=0.0, max_output_tokens=64)
    kwargs.update(overrides)
    return ChatRequest(**kwargs)


class TestCountFallbackTokens:
    def test_whitespace_runs(self):
        assert count_fallback_tokens("one two  three\n four\t") == 4

    def test_empty(self):
        assert count_fallback_tokens("") == 0
        assert count_fallback_tokens("   ") == 0

    def test_single(self):
        assert count_fallback_tokens("word") == 1


class TestRequestValidation:
    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            make_request(temperature=-0.1)
        with pytest.raises(ValueError):
            make_request(temperature=1.5)
        assert make_request(temperature=1.0).temperature == 1.0

    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            make_request(max_output_tokens=0)

    def test_response_tokens_non_negative(self):
        with pytest.raises(ValueError):
            ChatResponse(text="x", output_tokens=-1)


class TestScriptedBackend:
    def test_replays_in_order(self):
        backend = ScriptedBackend(["first reply", "second"])
        assert backend.complete(make_request()).text == "first reply"
        assert backend.complete(make_request()).text == "second"

    def test_exhaustion_raises(self):
        backend = ScriptedBackend(["only"])
        backend.complete(make_request())
        with pytest.raises(ScriptExhaustedError):
            backend.complete(make_request())

    def test_tokens_counted_by_fallback(self):
        backend = ScriptedBackend(["three word reply"])
        assert backend.complete(make_request()).output_tokens == 3

    def test_records_requests_verbatim(self):
        backend = ScriptedBackend(["a", "b"])
        backend.complete(make_request(temperature=0.3))
        backend.complete(make_request(temperature=0.7))
        assert [c.temperature for c in backend.calls] == [0.3, 0.7]

    def test_deterministic_replay(self):
        steps = ["one", "two", "three"]
        first = [ScriptedBackend(steps).complete(make_request()).text for _ in range(1)]
        second = [ScriptedBackend(steps).complete(make_request()).text for _ in range(1)]
        assert first == second


class TestHttpBackend:
    def test_round_trip_with_reported_usage(self, endpoint):
        endpoint.push_chat("the reply text", completion_tokens=42)
        backend = HttpBackend(endpoint.url, "test-model", api_key="sk-test")
        response = backend.complete(make_request(temperature=0.2, max_output_tokens=9))
        assert response.text == "the reply text"
        assert response.output_tokens == 42
        sent = endpoint.received[0]
        assert sent["model"] == "test-model"
        assert sent["temperature"] == 0.2
        assert sent["max_tokens"] == 9
        assert sent["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user"},
        ]

    def test_empty_system_text_sends_single_message(self, endpoint):
        endpoint.push_chat("ok")
        backend = HttpBackend(endpoint.url, "m")
        backend.complete(make_request(system_text=""))
        assert [m["role"] for m in endpoint.received[0]["messages"]] == ["user"]

    def test_fallback_token_count_when_usage_missing(self, endpoint):
        endpoint.push({"choices": [{"message": {"content": "alpha beta gamma"}}]})
        backend = HttpBackend(endpoint.url, "m")
        assert backend.complete(make_request()).output_tokens == 3

    def test_boolean_usage_is_not_a_token_count(self, endpoint):
        endpoint.push_chat('{"action": "stop"}', completion_tokens=True)
        backend = HttpBackend(endpoint.url, "m")
        assert backend.complete(make_request()).output_tokens == 2

    def test_4xx_is_config_error_without_retry(self, endpoint, sleeps):
        endpoint.push({"error": "bad key"}, status=401)
        backend = HttpBackend(endpoint.url, "m")
        with pytest.raises(EndpointConfigError, match="401"):
            backend.complete(make_request())
        assert len(endpoint.received) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_retried(self, endpoint, sleeps, status):
        endpoint.push({"error": "slow down"}, status=status)
        endpoint.push_chat("after the wait", completion_tokens=1)
        backend = HttpBackend(endpoint.url, "m")
        assert backend.complete(make_request()).text == "after the wait"
        assert len(endpoint.received) == 2

    def test_5xx_retried_then_succeeds(self, endpoint, sleeps):
        endpoint.push({"error": "overloaded"}, status=503)
        endpoint.push_chat("recovered", completion_tokens=1)
        backend = HttpBackend(endpoint.url, "m")
        assert backend.complete(make_request()).text == "recovered"
        assert len(endpoint.received) == 2

    def test_retries_exhausted_is_transport_error(self, endpoint, sleeps):
        for _ in range(4):
            endpoint.push({"error": "down"}, status=500)
        backend = HttpBackend(endpoint.url, "m")
        with pytest.raises(TransportError, match="4 attempts"):
            backend.complete(make_request())
        assert len(endpoint.received) == 4
        assert sleeps == [0.5, 1.0, 2.0]

    def test_unreachable_endpoint_is_transport_error(self, sleeps):
        backend = HttpBackend("http://127.0.0.1:9/nope", "m")
        with pytest.raises(TransportError):
            backend.complete(make_request())

    def test_malformed_body_retried(self, endpoint, sleeps):
        endpoint.push(b"this is not json")
        endpoint.push_chat("fine now", completion_tokens=2)
        backend = HttpBackend(endpoint.url, "m")
        assert backend.complete(make_request()).text == "fine now"

    def test_missing_choices_is_transport_error(self, endpoint):
        endpoint.push({"choices": []})
        backend = HttpBackend(endpoint.url, "m")
        with pytest.raises(TransportError, match="choices"):
            backend.complete(make_request())

    def test_auth_header_present_only_with_key(self, endpoint):
        endpoint.push_chat("x")
        HttpBackend(endpoint.url, "m", api_key="sk-1").complete(make_request())
        endpoint.push_chat("y")
        HttpBackend(endpoint.url, "m").complete(make_request())
        assert len(endpoint.received) == 2
        with_key, without_key = endpoint.received_headers
        assert with_key.get("Authorization") == "Bearer sk-1"
        assert without_key.get("Authorization") is None
        assert with_key.get("Content-Type") == without_key.get("Content-Type") == "application/json"

    def test_unsendable_header_is_config_error_without_retry(self, endpoint, monkeypatch):
        monkeypatch.setattr("smr.llm.time.sleep", _no_sleep)
        backend = HttpBackend(endpoint.url, "m", api_key="sk-1\nX-Injected: 1")
        with pytest.raises(EndpointConfigError, match="could not be sent"):
            backend.complete(make_request())
        assert endpoint.received == []


def _no_sleep(seconds):
    raise AssertionError(f"slept {seconds} s")


class TestEndpointUrl:
    @pytest.mark.parametrize("client", [HttpBackend, HttpEmbedder])
    @pytest.mark.parametrize(
        "url", ["localhost:8000/v1/chat", "ftp://x/y", "http//bad", "http:///v1/chat", "http://host:port/v1"]
    )
    def test_malformed_url_rejected_when_built(self, monkeypatch, client, url):
        monkeypatch.setattr("smr.llm.time.sleep", _no_sleep)
        with pytest.raises(EndpointConfigError, match=re.escape(repr(url))):
            client(url, "m")

    @pytest.mark.parametrize("url", ["http://127.0.0.1:8000/v1/chat", "https://api.example.com/v1/chat"])
    def test_http_and_https_accepted(self, url):
        assert HttpBackend(url, "m").endpoint == url
        assert HttpEmbedder(url, "m").endpoint == url


class TestRetryAfter:
    @pytest.mark.parametrize("status", [408, 429, 503])
    def test_delta_seconds_replace_backoff(self, endpoint, sleeps, status):
        endpoint.push({"error": "later"}, status=status, headers={"Retry-After": "7"})
        endpoint.push_chat("ok", completion_tokens=1)
        backend = HttpBackend(endpoint.url, "m")
        assert backend.complete(make_request()).text == "ok"
        assert sleeps == [7.0]

    def test_http_date(self, endpoint, sleeps):
        when = datetime.now(timezone.utc) + timedelta(seconds=30)
        endpoint.push({"error": "later"}, status=429, headers={"Retry-After": format_datetime(when, usegmt=True)})
        endpoint.push_chat("ok", completion_tokens=1)
        HttpBackend(endpoint.url, "m").complete(make_request())
        assert len(sleeps) == 1 and 28.0 < sleeps[0] <= 30.0

    @pytest.mark.parametrize(
        "value, expected",
        [("120", 5.0), ("0", 0.0), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0)],
    )
    def test_clamped_to_zero_and_timeout(self, endpoint, sleeps, monkeypatch, value, expected):
        backend = HttpBackend(endpoint.url, "m")
        monkeypatch.setattr("smr.llm.TIMEOUT", 5.0)  # read at call time, after the backend is built
        endpoint.push({"error": "later"}, status=503, headers={"Retry-After": value})
        endpoint.push_chat("ok", completion_tokens=1)
        backend.complete(make_request())
        assert sleeps == [expected]

    def test_clamped_to_default_timeout(self, endpoint, sleeps):
        endpoint.push({"error": "later"}, status=503, headers={"Retry-After": "120"})
        endpoint.push_chat("ok", completion_tokens=1)
        HttpBackend(endpoint.url, "m").complete(make_request())
        assert sleeps == [60.0]

    @pytest.mark.parametrize(
        "status, value", [(503, "soon"), (503, "-3"), (503, "1.5"), (500, "7"), (502, "7")]
    )
    def test_unreadable_or_other_status_keeps_backoff(self, endpoint, sleeps, status, value):
        endpoint.push({"error": "later"}, status=status, headers={"Retry-After": value})
        endpoint.push_chat("ok", completion_tokens=1)
        HttpBackend(endpoint.url, "m").complete(make_request())
        assert sleeps == [0.5]


class TestRetryLogging:
    def test_each_retry_logged_with_attempt_cause_and_sleep(self, endpoint, sleeps, caplog):
        endpoint.push({"error": "overloaded"}, status=503)
        endpoint.push(b"this is not json")
        endpoint.push_chat("ok", completion_tokens=1)
        with caplog.at_level(logging.WARNING, logger="smr.llm"):
            HttpBackend(endpoint.url, "m").complete(make_request())
        records = [r for r in caplog.records if r.name == "smr.llm"]
        assert [r.levelno for r in records] == [logging.WARNING, logging.WARNING]
        first, second = (r.getMessage() for r in records)
        assert "attempt 1/4" in first and "HTTP 503" in first and "0.50 s" in first
        assert "attempt 2/4" in second and "JSONDecodeError" in second and "1.00 s" in second

    def test_connection_error_logged_and_last_attempt_not(self, monkeypatch, sleeps, caplog):
        monkeypatch.setattr("smr.llm.MAX_RETRIES", 1)
        backend = HttpBackend("http://127.0.0.1:9/nope", "m")
        with caplog.at_level(logging.WARNING, logger="smr.llm"), pytest.raises(TransportError, match="2 attempts"):
            backend.complete(make_request())
        messages = [r.getMessage() for r in caplog.records if r.name == "smr.llm"]
        assert len(messages) == 1
        assert "attempt 1/2" in messages[0] and "URLError" in messages[0] and "0.50 s" in messages[0]


def test_runs_without_requests_installed(endpoint):
    """The transport is the standard library: import the CLI and make a call with `requests` unimportable."""
    endpoint.push_chat("no requests here", completion_tokens=2)
    code = textwrap.dedent(
        f"""
        import sys
        sys.modules["requests"] = None
        import smr.cli
        from smr.llm import ChatRequest, HttpBackend
        reply = HttpBackend({endpoint.url!r}, "m").complete(ChatRequest("", "ping", 0.0, 1))
        print(reply.text, reply.output_tokens)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(smr.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no requests here 2"
    assert len(endpoint.received) == 1


class TestHttpEmbedder:
    def test_returns_unit_vector(self, endpoint):
        endpoint.push({"data": [{"embedding": [3.0, 4.0]}]})
        embedder = HttpEmbedder(endpoint.url, "embed-model")
        vec = embedder("some text")
        assert vec.tolist() == pytest.approx([0.6, 0.8])
        assert endpoint.received[0]["input"] == ["some text"]

    def test_malformed_embedding_response(self, endpoint):
        endpoint.push({"data": []})
        embedder = HttpEmbedder(endpoint.url, "embed-model")
        with pytest.raises(TransportError):
            embedder("text")
