"""LLM provider layer: scripted mock, response cache, retry, HTTP client."""
from __future__ import annotations

import json

import pytest

from eventpipe._http import ProviderError
from eventpipe.config import ProviderConfig, build_llm_provider
from eventpipe.llm import (
    CacheError,
    CompletionResult,
    FormatFailureError,
    MockMissError,
    ResponseCache,
    ScriptedMockLlm,
    bundle_fingerprint,
    cache_key,
    cached_complete,
    complete_with_retry,
)
from eventpipe.prompts import PromptBundle, PromptMessage


def _bundle(text="extract the events", stage="trigger", segment_id="s1"):
    return PromptBundle(
        (PromptMessage("system", "you extract events"), PromptMessage("user", text)),
        stage,
        segment_id,
    )


class TestScriptedMock:
    def test_keyed_by_segment_and_stage(self):
        mock = ScriptedMockLlm({"s1/trigger": "reply-a", "s2/trigger": "reply-b"})
        assert mock.complete(_bundle(segment_id="s1")) == "reply-a"
        assert mock.complete(_bundle(segment_id="s2")) == "reply-b"

    def test_sequence_consumed_in_order_then_last_repeats(self):
        mock = ScriptedMockLlm({"s1/trigger": ["one", "two"]})
        bundle = _bundle()
        assert [mock.complete(bundle) for _ in range(4)] == ["one", "two", "two", "two"]

    def test_unscripted_request_raises_instead_of_inventing(self):
        mock = ScriptedMockLlm({"s1/trigger": "x"})
        with pytest.raises(MockMissError, match="s9"):
            mock.complete(_bundle(segment_id="s9"))

    def test_fingerprint_key_matches_segmentless_bundles(self):
        bundle = _bundle(segment_id="s1")
        mock = ScriptedMockLlm({bundle_fingerprint(bundle): "by-content"})
        assert mock.complete(bundle) == "by-content"

    def test_call_counters(self):
        mock = ScriptedMockLlm({"s1/trigger": "x"})
        bundle = _bundle()
        mock.complete(bundle)
        mock.complete(bundle)
        assert mock.call_count == 2

    def test_from_script_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"s1/trigger": ["a", "b"]}))
        mock = ScriptedMockLlm.from_script_file(path, provider_name="fixture")
        assert mock.provider_id == "fixture"
        assert mock.complete(_bundle()) == "a"

    def test_non_string_entry_rejected(self):
        with pytest.raises(ValueError):
            ScriptedMockLlm({"s1/trigger": [1, 2]})


class TestCacheKey:
    def test_distinct_attempts_get_distinct_keys(self):
        bundle = _bundle()
        assert cache_key("mock", bundle, 1) != cache_key("mock", bundle, 2)

    def test_distinct_providers_get_distinct_keys(self):
        bundle = _bundle()
        assert cache_key("mock-a", bundle, 1) != cache_key("mock-b", bundle, 1)

    def test_one_character_prompt_change_changes_key(self):
        assert cache_key("m", _bundle("extract events"), 1) != cache_key(
            "m", _bundle("extract event"), 1
        )

    def test_line_ending_normalization(self):
        assert cache_key("m", _bundle("a\r\nb"), 1) == cache_key("m", _bundle("a\nb"), 1)

    def test_stage_and_segment_do_not_affect_key(self):
        # The key covers what the provider sees: messages only.
        a = cache_key("m", _bundle("same", stage="trigger", segment_id="x"), 1)
        b = cache_key("m", _bundle("same", stage="argument", segment_id="y"), 1)
        assert a == b


class TestResponseCache:
    def test_put_then_get(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        cache.put("k1", "v1")
        assert cache.get("k1") == "v1"
        assert cache.get("k2") is None

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ResponseCache(path).put("k1", "v1")
        assert ResponseCache(path).get("k1") == "v1"

    def test_hit_skips_provider(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        mock = ScriptedMockLlm({"s1/trigger": "fresh"})
        bundle = _bundle()
        assert cached_complete(mock, cache, bundle) == "fresh"
        assert cached_complete(mock, cache, bundle) == "fresh"
        assert mock.call_count == 1

    def test_no_cache_calls_provider_every_time(self):
        mock = ScriptedMockLlm({"s1/trigger": "fresh"})
        bundle = _bundle()
        cached_complete(mock, None, bundle)
        cached_complete(mock, None, bundle)
        assert mock.call_count == 2

    def test_malformed_line_rejected_at_open(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"key": "a", "response": "b"}\nnot json\n')
        with pytest.raises(CacheError, match="2"):
            ResponseCache(path)

    @pytest.mark.parametrize(
        "line",
        [
            b'{"key": "a", "response": "caf\xff"}',
            b'{"key": "a", "response": 5}',
            b'{"key": "a", "response": null}',
            b'{"key": 5, "response": "b"}',
            b'["a", "b"]',
        ],
        ids=["invalid-utf-8", "int-response", "null-response", "int-key", "not-an-object"],
    )
    def test_entry_that_is_not_a_string_pair_is_rejected_at_open(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"key": "k", "response": "v"}\n' + line + b"\n")
        with pytest.raises(CacheError, match=f"^{path}:2: malformed cache entry$"):
            ResponseCache(path)

    def test_torn_last_line_is_dropped_at_open(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = ResponseCache(path)
        cache.put("k1", "v1")
        cache.put("k2", "v2")
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # a crash cut k2's record mid-line
        reopened = ResponseCache(path)
        assert (reopened.get("k1"), reopened.get("k2")) == ("v1", None)
        reopened.put("k3", "v3")
        again = ResponseCache(path)
        assert (again.get("k1"), again.get("k2"), again.get("k3")) == ("v1", None, "v3")

    def test_responses_stored_verbatim(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        weird = 'line1\nline2 with "quotes" and {braces}'
        cache.put("k", weird)
        assert ResponseCache(tmp_path / "c.jsonl").get("k") == weird


class TestCompleteWithRetry:
    def test_first_acceptable_reply_wins(self):
        mock = ScriptedMockLlm({"s1/trigger": "good"})
        result = complete_with_retry(mock, _bundle(), lambda t: t == "good")
        assert isinstance(result, CompletionResult)
        assert result.text == "good"
        assert result.attempts == 1
        assert result.raws == ("good",)

    def test_retry_until_verifier_accepts(self):
        mock = ScriptedMockLlm({"s1/trigger": ["garbage", "good"]})
        result = complete_with_retry(mock, _bundle(), lambda t: t == "good")
        assert result.attempts == 2
        assert result.raws == ("garbage", "good")

    def test_exhaustion_raises_with_last_raw(self):
        mock = ScriptedMockLlm({"s1/trigger": ["bad1", "bad2", "bad3"]})
        with pytest.raises(FormatFailureError) as info:
            complete_with_retry(mock, _bundle(), lambda t: False, max_attempts=3)
        assert info.value.last_response == "bad3"
        assert info.value.attempts == 3
        assert mock.call_count == 3

    def test_default_max_attempts_is_three(self):
        mock = ScriptedMockLlm({"s1/trigger": "bad"})
        with pytest.raises(FormatFailureError):
            complete_with_retry(mock, _bundle(), lambda t: False)
        assert mock.call_count == 3

    def test_corrective_retries_append_without_mutating_original(self):
        seen = []

        class Spy(ScriptedMockLlm):
            def complete(self, bundle):
                seen.append(bundle)
                return super().complete(bundle)

        mock = Spy({"s1/trigger": ["bad", "good"]})
        bundle = _bundle()
        before = bundle.messages
        complete_with_retry(mock, bundle, lambda t: t == "good", corrective=True)
        assert bundle.messages == before
        assert len(seen[0].messages) == len(before)
        assert len(seen[1].messages) == len(before) + 1
        assert seen[1].messages[-1].role == "user"

    def test_corrective_retry_quotes_the_rejected_reply(self):
        seen = []

        class Spy(ScriptedMockLlm):
            def complete(self, bundle):
                seen.append(bundle)
                return super().complete(bundle)

        mock = Spy({"s1/trigger": ["first bad", "second bad", "good"]})
        complete_with_retry(mock, _bundle(), lambda t: t == "good", corrective=True)
        assert [len(b.messages) for b in seen] == [2, 3, 3]
        assert "first bad" in seen[1].messages[-1].content
        assert "second bad" in seen[2].messages[-1].content
        assert "first bad" not in seen[2].messages[-1].content

    def test_plain_retries_resend_identical_bundle(self):
        seen = []

        class Spy(ScriptedMockLlm):
            def complete(self, bundle):
                seen.append(bundle)
                return super().complete(bundle)

        mock = Spy({"s1/trigger": ["bad", "good"]})
        complete_with_retry(mock, _bundle(), lambda t: t == "good")
        assert seen[0] == seen[1]

    def test_cached_attempts_have_distinct_keys(self, tmp_path):
        # Round 1 caches a rejected attempt 1 and an accepted attempt 2;
        # round 2 must replay both from the cache and still succeed.
        cache = ResponseCache(tmp_path / "c.jsonl")
        mock = ScriptedMockLlm({"s1/trigger": ["garbage", "good"]})
        first = complete_with_retry(mock, _bundle(), lambda t: t == "good", cache=cache)
        assert first.attempts == 2
        assert mock.call_count == 2
        replay = complete_with_retry(mock, _bundle(), lambda t: t == "good", cache=cache)
        assert replay.attempts == 2
        assert replay.text == "good"
        assert mock.call_count == 2

    def test_bad_max_attempts_rejected(self):
        mock = ScriptedMockLlm({"s1/trigger": "x"})
        with pytest.raises(ValueError):
            complete_with_retry(mock, _bundle(), lambda t: True, max_attempts=0)


def _remote(url: str, *, model: str = "m", **fields):
    config = ProviderConfig(kind="remote", endpoint=url, model=model, **fields)
    return build_llm_provider(config)


class TestHttpProvider:
    def test_posts_model_messages_and_parses_text(self, http_server):
        http_server.default_response = (200, {"text": "the reply"})
        provider = _remote(http_server.url, model="test-model")
        assert provider.complete(_bundle("hi")) == "the reply"
        body = http_server.requests[0]["body"]
        assert body["model"] == "test-model"
        assert body["messages"][0] == {"role": "system", "content": "you extract events"}
        assert body["messages"][1] == {"role": "user", "content": "hi"}

    def test_parses_chat_completions_shape(self, http_server):
        http_server.default_response = (
            200,
            {"choices": [{"message": {"role": "assistant", "content": "nested"}}]},
        )
        provider = _remote(http_server.url)
        assert provider.complete(_bundle()) == "nested"

    def test_sampling_parameters_merged_into_payload(self, http_server):
        http_server.default_response = (200, {"text": "ok"})
        provider = _remote(http_server.url, sampling={"temperature": 0.0})
        provider.complete(_bundle())
        assert http_server.requests[0]["body"]["temperature"] == 0.0

    def test_api_key_read_from_environment(self, http_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sekret-value")
        http_server.default_response = (200, {"text": "ok"})
        provider = _remote(http_server.url, api_key_env="TEST_LLM_KEY")
        provider.complete(_bundle())
        assert http_server.requests[0]["headers"]["Authorization"] == "Bearer sekret-value"
        # The key never leaks into the provider identity used for cache keys.
        assert "sekret-value" not in provider.provider_id

    def test_sampling_settings_are_part_of_the_cache_key(self):
        cold = _remote("http://127.0.0.1:9/chat", sampling={"temperature": 0.0})
        warm = _remote("http://127.0.0.1:9/chat", sampling={"temperature": 0.7})
        assert cache_key(cold.provider_id, _bundle(), 1) != cache_key(warm.provider_id, _bundle(), 1)
        # Without sampling settings the id, and so every existing cache key, is unchanged.
        assert _remote("http://127.0.0.1:9/chat").provider_id == (
            "http:m@http://127.0.0.1:9/chat"
        )

    def test_missing_api_key_raises_without_leaking(self, http_server, monkeypatch):
        monkeypatch.delenv("TEST_LLM_KEY", raising=False)
        provider = _remote(http_server.url, api_key_env="TEST_LLM_KEY")
        with pytest.raises(ProviderError, match="TEST_LLM_KEY"):
            provider.complete(_bundle())
        assert http_server.requests == []

    def test_retries_on_server_error_then_succeeds(self, http_server):
        http_server.enqueue({"oops": True}, status=500)
        http_server.enqueue({"text": "recovered"})
        provider = _remote(http_server.url, max_retries=3)
        assert provider.complete(_bundle()) == "recovered"
        assert len(http_server.requests) == 2

    def test_exhausted_retries_raise_provider_error(self, http_server):
        for _ in range(5):
            http_server.enqueue({}, status=503)
        provider = _remote(http_server.url, max_retries=2)
        with pytest.raises(ProviderError):
            provider.complete(_bundle())

    def test_unusable_payload_raises(self, http_server):
        http_server.default_response = (200, {"unexpected": "shape"})
        provider = _remote(http_server.url)
        with pytest.raises(ProviderError):
            provider.complete(_bundle())
