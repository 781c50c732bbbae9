from __future__ import annotations

import json

import pytest

from smr.errors import EndpointConfigError, ScriptExhaustedError, TransportError
from smr.llm import (
    ChatRequest,
    ChatResponse,
    HttpBackend,
    HttpEmbedder,
    ScriptedBackend,
    count_fallback_tokens,
)


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

    def test_4xx_is_config_error_without_retry(self, endpoint):
        endpoint.push({"error": "bad key"}, status=401)
        backend = HttpBackend(endpoint.url, "m", backoff_start=0.01)
        with pytest.raises(EndpointConfigError, match="401"):
            backend.complete(make_request())
        assert len(endpoint.received) == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_retried(self, endpoint, status):
        endpoint.push({"error": "slow down"}, status=status)
        endpoint.push_chat("after the wait", completion_tokens=1)
        backend = HttpBackend(endpoint.url, "m", backoff_start=0.01)
        assert backend.complete(make_request()).text == "after the wait"
        assert len(endpoint.received) == 2

    def test_5xx_retried_then_succeeds(self, endpoint):
        endpoint.push({"error": "overloaded"}, status=503)
        endpoint.push_chat("recovered", completion_tokens=1)
        backend = HttpBackend(endpoint.url, "m", backoff_start=0.01)
        assert backend.complete(make_request()).text == "recovered"
        assert len(endpoint.received) == 2

    def test_retries_exhausted_is_transport_error(self, endpoint):
        for _ in range(4):
            endpoint.push({"error": "down"}, status=500)
        backend = HttpBackend(endpoint.url, "m", max_retries=3, backoff_start=0.01)
        with pytest.raises(TransportError, match="4 attempts"):
            backend.complete(make_request())
        assert len(endpoint.received) == 4

    def test_unreachable_endpoint_is_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:9/nope", "m", max_retries=1, backoff_start=0.01)
        with pytest.raises(TransportError):
            backend.complete(make_request())

    def test_malformed_body_retried(self, endpoint):
        endpoint.push(b"this is not json")
        endpoint.push_chat("fine now", completion_tokens=2)
        backend = HttpBackend(endpoint.url, "m", backoff_start=0.01)
        assert backend.complete(make_request()).text == "fine now"

    def test_missing_choices_is_transport_error(self, endpoint):
        endpoint.push({"choices": []})
        backend = HttpBackend(endpoint.url, "m", max_retries=0)
        with pytest.raises(TransportError, match="choices"):
            backend.complete(make_request())

    def test_auth_header_present_only_with_key(self, endpoint):
        endpoint.push_chat("x")
        HttpBackend(endpoint.url, "m", api_key="sk-1").complete(make_request())
        # The double records payloads, not headers; exercise the no-key path too.
        endpoint.push_chat("y")
        HttpBackend(endpoint.url, "m").complete(make_request())
        assert len(endpoint.received) == 2


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
