"""Chat completion providers (remote HTTP, scripted mock), cache, and the stage model.

StageModel.ask is the one ask path: each attempt is looked up in the cache,
sent to the provider on a miss, parsed once, and retried per the stage's policy.

Cache keys cover the provider id, the canonical message serialization, and the
attempt ordinal. The ordinal matters: a retry re-issues the identical bundle,
and without it the cache would pin the first (rejected) response forever.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import weakref
from abc import ABC, abstractmethod
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable

from ._http import Endpoint, ProviderError
from .model import DatasetError, Lines, _decode_line, parse_json
from .prompts import PromptBundle, PromptMessage, Template

__all__ = [
    "CacheError",
    "CompletionResult",
    "HttpLlmProvider",
    "LlmProvider",
    "MockMissError",
    "ProviderError",
    "ResponseCache",
    "ScriptedMockLlm",
    "StageModel",
    "cache_key",
]


class MockMissError(RuntimeError):
    """The scripted mock has no response for this request."""


class CacheError(RuntimeError):
    """The response cache could not be read or written."""


class LlmProvider(ABC):
    """Chat completion contract. Implementations must be safe under concurrent calls."""

    # Whether a completion waits on the network. A run overlaps such waits on
    # a worker pool; one whose providers all answer in process runs inline.
    waits = True

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
    loaded once at open; writes append and flush under a lock, through one
    handle opened at the first put. ``close`` closes it, as does collecting
    the cache or exit; a put after ``close`` opens it again. A crash
    mid-append leaves a torn last line, which the next open cuts off; a
    malformed complete line raises CacheError.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        self._file: BinaryIO | None = None
        if self.path.exists():
            try:
                data = self.path.read_bytes()
                # A last line without its newline is a put that a crash cut
                # short: drop it so the next append starts on a fresh line.
                end = data.rfind(b"\n") + 1
                if end < len(data):
                    os.truncate(self.path, end)
            except OSError as exc:
                raise CacheError(f"cannot open cache file {self.path}: {exc}") from exc
            for lineno, line in enumerate(io.BytesIO(data[:end]), start=1):
                if not line.strip():
                    continue
                # UnicodeDecodeError, JSONDecodeError and an integer past int's
                # digit limit are ValueErrors; a value nested too deep raises
                # RecursionError.
                try:
                    rec = _decode_line(line.decode("utf-8"))
                    key, response = rec["key"], rec["response"]
                    if not (isinstance(key, str) and isinstance(response, str)):
                        raise TypeError("key and response must be strings")
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise CacheError(f"{self.path}:{lineno}: malformed cache entry") from exc
                self._entries[key] = response

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, response: str) -> None:
        line = json.dumps({"key": key, "response": response}, ensure_ascii=True) + "\n"
        with self._lock:
            self._entries[key] = response
            try:
                if self._file is None:
                    self._file = self.path.open("ab")
                    weakref.finalize(self, self._file.close)
                self._file.write(line.encode("ascii"))
                self._file.flush()
            except OSError as exc:
                raise CacheError(f"cannot append to cache file {self.path}: {exc}") from exc

    def close(self) -> None:
        """Close the append handle, if a put opened one."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class ScriptedMockLlm(LlmProvider):
    """Deterministic offline provider driven by a script file.

    Keys are "<segment_id>/<stage>". A key may map to one response or an
    ordered list; list entries are consumed per call, and the last one repeats
    once exhausted. Unmatched requests raise MockMissError rather than
    inventing output.
    """

    waits = False

    def __init__(self, script: dict[str, str | list[str]], *, provider_name: str = "mock"):
        self._provider_name = provider_name
        self._sequences: dict[str, list[str]] = {}
        for key, value in script.items():
            seq = [value] if isinstance(value, str) else value
            if not isinstance(seq, list) or not seq or not all(isinstance(i, str) for i in seq):
                raise ValueError(
                    f"mock script entry {key!r} must be a string or a nonempty list of strings"
                )
            self._sequences[key] = list(seq)
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()
        self.call_count = 0

    @classmethod
    def from_script_file(
        cls, path: str | Path, *, provider_name: str = "mock", data: Lines | None = None
    ) -> "ScriptedMockLlm":
        """The provider of a script file."""
        script = parse_json(
            Path(path).read_bytes() if data is None else b"".join(data), f"mock script {path}"
        )
        if not isinstance(script, dict):
            raise DatasetError(f"mock script {path} must be a JSON object")
        try:
            return cls(script, provider_name=provider_name)
        except ValueError as exc:
            raise DatasetError(f"mock script {path}: {exc}") from exc

    @property
    def provider_id(self) -> str:
        return self._provider_name

    def complete(self, bundle: PromptBundle) -> str:
        key = f"{bundle.segment_id}/{bundle.stage}"
        with self._lock:
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
    """Remote chat model: one conversation per request, sent through its Endpoint."""

    def __init__(self, endpoint: Endpoint, model: str, sampling: dict):
        self.endpoint = endpoint
        self.model = model
        self.sampling = dict(sampling)

    @property
    def provider_id(self) -> str:
        """Model and endpoint, plus the sampling settings when any are set."""
        base = f"http:{self.model}@{self.endpoint.url}"
        if not self.sampling:
            return base
        return f"{base}#{json.dumps(self.sampling, sort_keys=True, separators=(',', ':'))}"

    def complete(self, bundle: PromptBundle) -> str:
        messages = [{"role": m.role, "content": m.content} for m in bundle.messages]
        text = _extract_reply(
            self.endpoint.post({"model": self.model, "messages": messages, **self.sampling})
        )
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


@dataclass(frozen=True)
class CompletionResult:
    """The parsed value of the accepted reply (None: every reply rejected), its text, attempts."""

    value: Any
    text: str
    attempts: int


_CORRECTIVE_NOTE = (
    "Your previous reply could not be parsed. Answer again following the required "
    "output format exactly."
)


@dataclass
class StageModel:
    """One prompt stage's model: its provider, parsed template, cache and retry policy.

    calls counts the completions that reach the provider; a cache hit counts
    none.
    """

    provider: LlmProvider
    template: Template
    _: KW_ONLY
    cache: ResponseCache | None = None
    max_attempts: int = 3
    corrective: bool = False
    calls: int = field(default=0, init=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def ask(self, bundle: PromptBundle, parse: Callable[[str], Any]) -> CompletionResult:
        """The parsed reply to bundle, asked with the stage's retry policy.

        The bundle is re-issued until parse(reply) returns a value; parse
        returns None to retry. Each reply is parsed once. By default each retry sends the identical
        bundle; with corrective=True each retry appends one user message
        holding a fixed correction and the reply just rejected. The original
        bundle is never mutated. When every attempt is rejected, the result's
        value is None and its text is the last reply.
        """
        request = bundle
        for attempt in range(1, self.max_attempts + 1):
            text = self._reply(request, attempt)
            value = parse(text)
            if value is not None:
                return CompletionResult(value, text, attempt)
            if self.corrective:
                note = f"{_CORRECTIVE_NOTE}\nYour previous reply was:\n{text}"
                request = PromptBundle(
                    bundle.messages + (PromptMessage("user", note),), bundle.stage, bundle.segment_id
                )
        return CompletionResult(None, text, self.max_attempts)

    def _reply(self, request: PromptBundle, attempt: int) -> str:
        """The reply to one attempt: from the cache, or else from the provider and then cached."""
        key = None
        if self.cache is not None:
            key = cache_key(self.provider.provider_id, request, attempt)
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        with self._lock:
            self.calls += 1
        response = self.provider.complete(request)
        if key is not None:
            self.cache.put(key, response)
        return response
