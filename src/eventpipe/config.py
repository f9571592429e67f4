"""Run configuration: a single JSON file, strictly validated, stably hashable.

Unknown keys are rejected everywhere so a typo cannot silently fall back to a
default, and every value must have its field's declared type. API keys never
live in the config, only the names of environment variables that hold them.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints
from urllib.parse import urlsplit

from ._http import Endpoint
from .gate import FileVerdictProvider, HttpVerdictProvider, check_policy
from .llm import HttpLlmProvider, ScriptedMockLlm
from .model import FIELD_TYPES, Lines, parse_json
from .prompts import STAGES
from .retrieval import HashedBagEmbedder, HttpEmbeddingProvider

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "ProviderConfig",
    "build_embedding_provider",
    "build_llm_provider",
    "build_verdict_provider",
]

PROVIDER_KINDS = ("remote", "mock", "file")


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


# The config file's shape: section -> {JSON key: PipelineConfig field}. A stage
# key under "llm" fills llm_overrides[stage]; the stages are listed sorted
# because to_dict writes the overrides in this order.
_LAYOUT = {
    "paths": {key: key for key in ("gold", "transcripts", "support", "output_dir",
                                   "ontology", "templates", "cache", "index")},
    "gate": {
        "policy": "gate_policy",
        "threshold": "gate_threshold",
        "lenient_llm": "gate_lenient_llm",
        "learned": "learned",
        "llm_file": "gate_llm_file",
    },
    "retrieval": {
        "k": "retrieval_k",
        "embedding": "embedding",
        "same_type_filter": "same_type_filter",
    },
    "llm": {"default": "llm_default", **dict.fromkeys(sorted(STAGES), "llm_overrides")},
    "retry": {"max_attempts": "max_attempts", "corrective": "corrective"},
    "concurrency": {"workers": "workers"},
    "scoring": {"set_semantics": "set_semantics"},
}
# PipelineConfig field -> "section.key", as messages name it.
_KEYS = {
    name: f"{section}.{key}" for section, keys in _LAYOUT.items() for key, name in keys.items()
}
_KEYS["llm_overrides"] = "llm"
_REQUIRED = ("gold", "transcripts", "support", "output_dir", "llm_default")
_PROVIDERS = ("learned", "embedding", "llm_default", "llm_overrides")


def _is_http_url(value: str) -> bool:
    return urlsplit(value).scheme in ("http", "https")


def _take(mapping: dict, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


@dataclass(frozen=True)
class ProviderConfig:
    """One provider endpoint: remote HTTP, scripted mock, or precomputed file."""

    kind: str
    endpoint: str = ""
    model: str = ""
    api_key_env: str | None = None
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 4
    min_interval: float = 0.0
    sampling: dict = field(default_factory=dict)
    batch_size: int = 64
    script: str = ""
    name: str = "mock"
    dimension: int = 384
    path: str = ""

    def __post_init__(self):
        _check_types(self, lambda name: f"provider {name}")
        if self.kind not in PROVIDER_KINDS:
            raise ConfigError(f"provider kind must be one of {PROVIDER_KINDS}, got {self.kind!r}")
        for name in ("batch_size", "dimension", "max_in_flight", "max_retries"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"provider {name} must be an integer >= 1, got {value!r}")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"provider timeout must be a number > 0, got {self.timeout!r}")
        if not 0 <= self.min_interval < math.inf:
            raise ConfigError(
                f"provider min_interval must be a number >= 0, got {self.min_interval!r}"
            )
        for key in ("messages", "model"):
            if key in self.sampling:
                raise ConfigError(f"provider sampling must not set {key!r}: the request sets it")
        if self.kind == "remote" and self.endpoint and not _is_http_url(self.endpoint):
            raise ConfigError(
                f"provider endpoint must be an http or https URL, got {self.endpoint!r}"
            )

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "ProviderConfig":
        _take(data, [f.name for f in fields(cls)], where)
        if "kind" not in data:
            raise ConfigError(f"{where}: provider needs a 'kind'")
        try:
            return cls(**data)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    ProviderConfig: "a provider object",
    type(None): "null",
}


@functools.cache
def _field_types(cls) -> dict[str, tuple[type, ...]]:
    """Each field of a dataclass -> the types its annotation admits (each member of a union)."""
    return {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}


def _check_types(obj, label) -> None:
    """Raise ConfigError unless every field of the dataclass obj holds its declared type.

    A bool passes only a bool field, and an int passes a float field too.
    label maps a field name to the name the message gives it.
    """
    for name, allowed in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if isinstance(value, bool):
            ok = bool in allowed
        else:
            ok = isinstance(value, allowed) or (float in allowed and isinstance(value, int))
        if not ok:
            expected = " or ".join(_TYPE_NAMES[t] for t in allowed)
            raise ConfigError(f"{label(name)} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    gold: str
    transcripts: str
    support: str
    output_dir: str
    ontology: str | None = None
    templates: str | None = None
    cache: str | None = None
    index: str | None = None
    gate_policy: str = "all"
    gate_threshold: float = 0.5
    gate_lenient_llm: bool = False
    learned: ProviderConfig | None = None
    gate_llm_file: str | None = None
    retrieval_k: int = 10
    embedding: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind="mock"))
    same_type_filter: bool = False
    llm_default: ProviderConfig = field(default_factory=lambda: ProviderConfig(kind="mock"))
    llm_overrides: dict = field(default_factory=dict)
    max_attempts: int = 3
    corrective: bool = False
    workers: int = 4
    set_semantics: bool = False

    def __post_init__(self):
        threshold = self.gate_threshold
        is_probability, _ = FIELD_TYPES["p"]
        if not is_probability(threshold):
            raise ConfigError(f"config.gate.threshold must be in [0, 1], got {threshold!r}")
        _check_types(self, lambda name: f"config.{_KEYS[name]}")
        check_policy(self.gate_policy)
        for name, low in (("retrieval_k", 0), ("max_attempts", 1), ("workers", 1)):
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"config.{_KEYS[name]} must be >= {low}, got {value}")
        for stage in self.llm_overrides:
            if stage not in STAGES:
                raise ConfigError(f"llm override for unknown stage {stage!r}")

    def llm_for_stage(self, stage: str) -> ProviderConfig:
        return self.llm_overrides.get(stage, self.llm_default)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        _take(data, _LAYOUT, "config")
        given: dict = {}
        for section, keys in _LAYOUT.items():
            values = data.get(section, {})
            _take(values, keys, f"config.{section}")
            for key, value in values.items():
                name = keys[key]
                if name in _PROVIDERS:
                    if value is None:  # a provider set to null keeps its default
                        continue
                    value = ProviderConfig.from_dict(value, f"config.{section}.{key}")
                if name == "llm_overrides":
                    given.setdefault(name, {})[key] = value
                else:
                    given[name] = value
        for name in _REQUIRED:
            if not given.get(name):
                raise ConfigError(f"config.{_KEYS[name]} is required")
        return cls(**given)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            data = parse_json(path.read_bytes(), str(path), ConfigError)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        out: dict = {}
        for section, keys in _LAYOUT.items():
            out[section] = {}
            for key, name in keys.items():
                value = getattr(self, name)
                if name == "llm_overrides":
                    if key not in value:
                        continue
                    value = value[key]
                out[section][key] = value.to_dict() if isinstance(value, ProviderConfig) else value
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def input_files(self) -> dict[str, str]:
        """Every input file that shapes a stage artifact, by its name in inputs_digest.

        The prompt templates are listed only under a templates override:
        packaged templates are part of the program, not of its input.
        """
        files = {
            "transcripts": self.transcripts,
            "support": self.support,
            "ontology": self.ontology,
            "learned": self.learned.path if self.learned else None,
            "llm_file": self.gate_llm_file,
        }
        for stage in STAGES:
            files[f"script/{stage}"] = self.llm_for_stage(stage).script
            if self.templates:
                files[f"templates/{stage}"] = str(Path(self.templates) / f"{stage}.json")
        return {name: path for name, path in files.items() if path}

    def inputs_digest(self, digests: dict[str, str | None]) -> str:
        """Fingerprint of the contents of every input file that shapes a stage artifact.

        config_hash covers paths only; this covers what the files hold: the
        transcripts, the support set, the ontology, the prompt templates, the
        verdict files and the mock scripts. digests maps the path of each of
        input_files to the sha256 of the bytes that were parsed (None: the
        file was absent; the stage that reads it reports it).
        """
        blob = json.dumps(
            {name: digests[path] for name, path in self.input_files().items()}, sort_keys=True
        )
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _endpoint(cfg: ProviderConfig, role: str, what: str) -> Endpoint:
    """The remote service a provider config names, with every policy for reaching it."""
    if not cfg.endpoint:
        raise ConfigError(f"remote {role} provider needs an 'endpoint'")
    return Endpoint(
        cfg.endpoint,
        what=what,
        api_key_env=cfg.api_key_env,
        timeout=cfg.timeout,
        max_retries=cfg.max_retries,
        max_in_flight=cfg.max_in_flight,
        min_interval=cfg.min_interval,
    )


def build_llm_provider(cfg: ProviderConfig, *, data: Lines | None = None):
    """Instantiate a chat provider from its config; data is a mock script's bytes, if read."""
    if cfg.kind == "mock":
        if not cfg.script:
            raise ConfigError("mock llm provider needs a 'script' path")
        return ScriptedMockLlm.from_script_file(cfg.script, provider_name=cfg.name, data=data)
    if cfg.kind == "remote":
        if not cfg.model:
            raise ConfigError("remote llm provider needs a 'model'")
        endpoint = _endpoint(cfg, "llm", "completion endpoint")
        return HttpLlmProvider(endpoint, cfg.model, cfg.sampling)
    raise ConfigError(f"llm provider kind {cfg.kind!r} is not usable for completion")


def build_embedding_provider(cfg: ProviderConfig):
    """Instantiate an embedding provider from its config."""
    if cfg.kind == "mock":
        return HashedBagEmbedder(dimension=cfg.dimension)
    if cfg.kind == "remote":
        endpoint = _endpoint(cfg, "embedding", "embedding endpoint")
        return HttpEmbeddingProvider(endpoint, cfg.batch_size)
    raise ConfigError(f"embedding provider kind {cfg.kind!r} is not usable")


def build_verdict_provider(cfg: ProviderConfig, *, data: Lines | None = None):
    """Instantiate a learned-classifier verdict source; data is a verdict file's bytes, if read."""
    if cfg.kind == "file":
        if not cfg.path:
            raise ConfigError("file verdict provider needs a 'path'")
        return FileVerdictProvider(cfg.path, data=data)
    if cfg.kind == "remote":
        endpoint = _endpoint(cfg, "verdict", "learned-classifier endpoint")
        return HttpVerdictProvider(endpoint, cfg.batch_size)
    raise ConfigError(f"verdict provider kind {cfg.kind!r} is not usable")
