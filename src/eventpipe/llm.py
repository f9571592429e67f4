"""Chat completion providers: remote HTTP, deterministic scripted mock, cache, retries.

Cache keys cover the provider id, the canonical message serialization, and the
attempt ordinal. The ordinal matters: a retry re-issues the identical bundle,
and without it the cache would pin the first (rejected) response forever.
"""
from __future__ import annotations

import hashlib
import json
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from ._http import ProviderError, post_json
from .prompts import PromptBundle, PromptMessage

__all__ = [
    "CacheError",
    "CompletionResult",
    "FormatFailureError",
    "HttpLlmProvider",
    "LlmProvider",
    "MockMissError",
    "ProviderError",
    "ResponseCache",
    "ScriptedMockLlm",
    "bundle_fingerprint",
    "cache_key",
    "cached_complete",
    "complete_with_retry",
]


class MockMissError(RuntimeError):
    """The scripted mock has no response for this request."""


class CacheError(RuntimeError):
    """The response cache could not be read or written."""


class FormatFailureError(RuntimeError):
    """Every completion attempt was rejected by the stage verifier."""

    def __init__(self, message: str, *, last_response: str, attempts: int):
        super().__init__(message)
        self.last_response = last_response
        self.attempts = attempts


class LlmProvider(ABC):
    """Chat completion contract. Implementations must be safe under concurrent calls."""

    @property
    @abstractmethod
    def provider_id(self) -> str:
        ...

    @abstractmethod
    def complete(self, bundle: PromptBundle) -> str:
        ...


def _canonical_messages(messages: tuple[PromptMessage, ...]) -> list[list[str]]:
    # Normalized line endings keep keys bit-stable across platforms.
    return [[m.role, m.content.replace("\r\n", "\n").replace("\r", "\n")] for m in messages]


def bundle_fingerprint(bundle: PromptBundle) -> str:
    """Stable hash of a bundle's messages, independent of provider and attempt."""
    blob = json.dumps(_canonical_messages(bundle.messages), ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(provider_id: str, bundle: PromptBundle, attempt: int) -> str:
    blob = json.dumps(
        {
            "provider": provider_id,
            "attempt": attempt,
            "messages": _canonical_messages(bundle.messages),
        },
        ensure_ascii=True,
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only JSONL store of completion responses, keyed by request hash.

    Each line is {"key": <sha256 hex>, "response": <string>}. Entries are
    loaded once at open; writes append and flush under a lock, so the file
    stays valid after a crash mid-run.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        if self.path.exists():
            try:
                text = self.path.read_text(encoding="utf-8")
            except OSError as exc:
                raise CacheError(f"cannot read cache file {self.path}: {exc}") from exc
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    self._entries[rec["key"]] = rec["response"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise CacheError(f"{self.path}:{lineno}: malformed cache entry") from exc

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, response: str) -> None:
        line = json.dumps({"key": key, "response": response}, ensure_ascii=True)
        with self._lock:
            self._entries[key] = response
            try:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
                    fh.flush()
            except OSError as exc:
                raise CacheError(f"cannot append to cache file {self.path}: {exc}") from exc


class ScriptedMockLlm(LlmProvider):
    """Deterministic offline provider driven by a script file.

    Keys are "<segment_id>/<stage>", or a bundle fingerprint for requests not
    tied to a segment. A key may map to one response or an ordered list; list
    entries are consumed per call, and the last one repeats once exhausted.
    Unmatched requests raise MockMissError rather than inventing output.
    """

    def __init__(self, script: dict[str, str | list[str]], *, provider_name: str = "mock"):
        self._provider_name = provider_name
        self._sequences: dict[str, list[str]] = {}
        for key, value in script.items():
            seq = [value] if isinstance(value, str) else list(value)
            if not seq or not all(isinstance(item, str) for item in seq):
                raise ValueError(f"mock script entry {key!r} must be a string or list of strings")
            self._sequences[key] = seq
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()
        self.call_count = 0

    @classmethod
    def from_script_file(cls, path: str | Path, *, provider_name: str = "mock") -> "ScriptedMockLlm":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"mock script {path} must be a JSON object")
        return cls(data, provider_name=provider_name)

    @property
    def provider_id(self) -> str:
        return self._provider_name

    def complete(self, bundle: PromptBundle) -> str:
        key = f"{bundle.segment_id}/{bundle.stage}"
        with self._lock:
            seq = self._sequences.get(key)
            if seq is None:
                key = bundle_fingerprint(bundle)
                seq = self._sequences.get(key)
            if seq is None:
                raise MockMissError(
                    f"no scripted response for {bundle.segment_id!r} stage {bundle.stage!r}"
                )
            self.call_count += 1
            idx = self._cursor.get(key, 0)
            self._cursor[key] = idx + 1
            return seq[min(idx, len(seq) - 1)]


class HttpLlmProvider(LlmProvider):
    """Remote chat endpoint client with bounded concurrency and pacing.

    The API key is read from the configured environment variable at request
    time and appears only in the Authorization header, never in ids, logs,
    errors, or artifacts.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        api_key_env: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        max_in_flight: int = 4,
        min_interval: float = 0.0,
        sampling: dict | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.sampling = dict(sampling or {})
        self._gate = threading.Semaphore(max(1, max_in_flight))
        self._min_interval = max(0.0, min_interval)
        self._pace_lock = threading.Lock()
        self._last_request = 0.0

    @property
    def provider_id(self) -> str:
        return f"http:{self.model}@{self.endpoint}"

    def _headers(self) -> dict[str, str] | None:
        if not self.api_key_env:
            return None
        import os

        key = os.environ.get(self.api_key_env)
        if not key:
            raise ProviderError(
                f"environment variable {self.api_key_env} is not set (API key required)"
            )
        return {"Authorization": f"Bearer {key}"}

    def _pace(self) -> None:
        if self._min_interval <= 0:
            return
        with self._pace_lock:
            wait = self._last_request + self._min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def complete(self, bundle: PromptBundle) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in bundle.messages],
        }
        payload.update(self.sampling)
        with self._gate:
            self._pace()
            data = post_json(
                self.endpoint,
                payload,
                timeout=self.timeout,
                max_retries=self.max_retries,
                headers=self._headers(),
                what="completion endpoint",
            )
        text = _extract_reply(data)
        if text is None:
            raise ProviderError("completion endpoint returned no usable text field")
        return text


def _extract_reply(data: object) -> str | None:
    """Accept either a bare {"text": ...} or a chat-completions response shape."""
    if not isinstance(data, dict):
        return None
    if isinstance(data.get("text"), str):
        return data["text"]
    choices = data.get("choices")
    if isinstance(choices, list) and choices:
        message = choices[0].get("message") if isinstance(choices[0], dict) else None
        if isinstance(message, dict) and isinstance(message.get("content"), str):
            return message["content"]
    return None


def cached_complete(
    provider: LlmProvider,
    cache: ResponseCache | None,
    bundle: PromptBundle,
    *,
    attempt: int = 1,
) -> str:
    """Complete through the cache: hits never contact the provider."""
    if cache is None:
        return provider.complete(bundle)
    key = cache_key(provider.provider_id, bundle, attempt)
    hit = cache.get(key)
    if hit is not None:
        return hit
    response = provider.complete(bundle)
    cache.put(key, response)
    return response


@dataclass(frozen=True)
class CompletionResult:
    text: str
    attempts: int
    raws: tuple[str, ...]


_CORRECTIVE_NOTE = (
    "Your previous reply could not be parsed. Answer again following the required "
    "output format exactly."
)


def complete_with_retry(
    provider: LlmProvider,
    bundle: PromptBundle,
    verifier,
    *,
    max_attempts: int = 3,
    cache: ResponseCache | None = None,
    corrective: bool = False,
) -> CompletionResult:
    """Re-issue a bundle until the verifier accepts a response.

    By default each retry sends the identical bundle; with corrective=True a
    fixed corrective user message is appended for retries. The original bundle
    is never mutated. Exhaustion raises FormatFailureError carrying the last
    raw response.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    retry_bundle = bundle
    if corrective:
        retry_bundle = PromptBundle(
            bundle.messages + (PromptMessage("user", _CORRECTIVE_NOTE),),
            bundle.stage,
            bundle.segment_id,
        )
    raws: list[str] = []
    for attempt in range(1, max_attempts + 1):
        request = bundle if attempt == 1 else retry_bundle
        text = cached_complete(provider, cache, request, attempt=attempt)
        raws.append(text)
        if verifier(text):
            return CompletionResult(text=text, attempts=attempt, raws=tuple(raws))
    raise FormatFailureError(
        f"all {max_attempts} completion attempts rejected for segment "
        f"{bundle.segment_id!r} stage {bundle.stage!r}",
        last_response=raws[-1],
        attempts=max_attempts,
    )
