"""Configuration loading, strict validation, and provider construction."""
from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from eventpipe.config import (
    ConfigError,
    PipelineConfig,
    ProviderConfig,
    build_embedding_provider,
    build_llm_provider,
    build_verdict_provider,
)
from eventpipe.gate import FileVerdictProvider, GateError, HttpVerdictProvider
from eventpipe.llm import HttpLlmProvider, ScriptedMockLlm
from eventpipe.retrieval import HashedBagEmbedder, HttpEmbeddingProvider


def minimal_config() -> dict:
    return {
        "paths": {
            "gold": "data/gold.jsonl",
            "transcripts": "data/transcripts.jsonl",
            "support": "data/support.jsonl",
            "output_dir": "out",
        },
        "llm": {"default": {"kind": "mock", "script": "data/script.json"}},
    }


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = PipelineConfig.from_dict(minimal_config())
        assert cfg.gate_policy == "all"
        assert cfg.gate_threshold == 0.5
        assert cfg.gate_lenient_llm is False
        assert cfg.learned is None
        assert cfg.retrieval_k == 10
        assert cfg.embedding.kind == "mock"
        assert cfg.embedding.dimension == 384
        assert cfg.same_type_filter is False
        assert cfg.llm_overrides == {}
        assert cfg.max_attempts == 3
        assert cfg.corrective is False
        assert cfg.workers == 4
        assert cfg.set_semantics is False
        assert cfg.cache is None
        assert cfg.ontology is None

    def test_llm_for_stage_prefers_override(self):
        data = minimal_config()
        data["llm"]["format"] = {"kind": "mock", "script": "other.json", "name": "fixit"}
        cfg = PipelineConfig.from_dict(data)
        assert cfg.llm_for_stage("format").name == "fixit"
        assert cfg.llm_for_stage("trigger") is cfg.llm_default


class TestStrictKeys:
    def test_unknown_top_level_key(self):
        data = minimal_config()
        data["extras"] = {}
        with pytest.raises(ConfigError, match=r"config: unknown keys \['extras'\]"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("paths", "golds"),
            ("gate", "mode"),
            ("retrieval", "top_k"),
            ("llm", "verify"),
            ("retry", "backoff"),
            ("concurrency", "threads"),
            ("scoring", "strict"),
        ],
    )
    def test_unknown_section_key(self, section, key):
        data = minimal_config()
        data.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError, match=rf"config\.{section}: unknown keys"):
            PipelineConfig.from_dict(data)

    def test_section_must_be_object(self):
        data = minimal_config()
        data["gate"] = ["all"]
        with pytest.raises(ConfigError, match="expected an object"):
            PipelineConfig.from_dict(data)

    def test_unknown_provider_key(self):
        data = minimal_config()
        data["llm"]["default"]["temperature"] = 0.1
        with pytest.raises(ConfigError, match=r"config\.llm\.default: unknown keys"):
            PipelineConfig.from_dict(data)


class TestRequiredFields:
    @pytest.mark.parametrize("path_key", ["gold", "transcripts", "support", "output_dir"])
    def test_required_paths(self, path_key):
        data = minimal_config()
        del data["paths"][path_key]
        with pytest.raises(ConfigError, match=rf"config\.paths\.{path_key} is required"):
            PipelineConfig.from_dict(data)

    def test_empty_path_counts_as_missing(self):
        data = minimal_config()
        data["paths"]["gold"] = ""
        with pytest.raises(ConfigError, match="gold"):
            PipelineConfig.from_dict(data)

    def test_default_llm_required(self):
        data = minimal_config()
        data["llm"] = {}
        with pytest.raises(ConfigError, match=r"config\.llm\.default is required"):
            PipelineConfig.from_dict(data)

    def test_provider_needs_kind(self):
        data = minimal_config()
        data["gate"] = {"learned": {"path": "learned.jsonl"}}
        with pytest.raises(ConfigError, match="needs a 'kind'"):
            PipelineConfig.from_dict(data)

    def test_provider_kind_restricted(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            ProviderConfig(kind="carrier-pigeon")


class TestBounds:
    def test_negative_retrieval_k(self):
        data = minimal_config()
        data["retrieval"] = {"k": -1}
        with pytest.raises(ConfigError, match="k must be >= 0"):
            PipelineConfig.from_dict(data)

    def test_zero_k_is_allowed(self):
        data = minimal_config()
        data["retrieval"] = {"k": 0}
        assert PipelineConfig.from_dict(data).retrieval_k == 0

    def test_max_attempts_must_be_positive(self):
        data = minimal_config()
        data["retry"] = {"max_attempts": 0}
        with pytest.raises(ConfigError, match="max_attempts must be >= 1"):
            PipelineConfig.from_dict(data)

    def test_workers_must_be_positive(self):
        data = minimal_config()
        data["concurrency"] = {"workers": 0}
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_range(self, threshold):
        data = minimal_config()
        data["gate"] = {"threshold": threshold}
        with pytest.raises(ConfigError, match=r"threshold must be in \[0, 1\]"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            (section, key, value)
            for section, key in (("retrieval", "k"), ("retry", "max_attempts"),
                                 ("concurrency", "workers"))
            for value in ("four", None, 2.7, True, "3", [2])
        ],
        ids=repr,
    )
    def test_pipeline_integer_field_rejected(self, section, key, value):
        data = minimal_config()
        data[section] = {key: value}
        with pytest.raises(
            ConfigError, match=f"^config.{section}.{key} must be an integer, got {re.escape(repr(value))}$"
        ):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("threshold", ["0.5", True, None, float("nan"), float("inf")], ids=repr)
    def test_threshold_must_be_a_finite_number(self, threshold):
        data = minimal_config()
        data["gate"] = {"threshold": threshold}
        with pytest.raises(ConfigError, match=r"^config.gate.threshold must be in \[0, 1\], got "):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("threshold", [0, 1, 0.0, 1.0, 0.25])
    def test_threshold_at_its_bounds_accepted(self, threshold):
        data = minimal_config()
        data["gate"] = {"threshold": threshold}
        assert PipelineConfig.from_dict(data).gate_threshold == threshold

    @pytest.mark.parametrize(
        "name,value",
        [
            (name, value)
            for name in ("batch_size", "dimension", "max_in_flight", "max_retries")
            for value in (0, -1, 1.5, True, "4", None)
        ]
        + [("timeout", value) for value in (0, -1.0, float("nan"), float("inf"), "60", True)]
        + [("min_interval", value) for value in (-0.5, float("nan"), float("inf"), "0", None)],
        ids=repr,
    )
    def test_provider_numeric_field_rejected(self, name, value):
        data = minimal_config()
        data["retrieval"] = {"embedding": {"kind": "remote", "endpoint": "http://x", name: value}}
        with pytest.raises(ConfigError, match=f"^config.retrieval.embedding: provider {name} "):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("key", ["messages", "model"])
    def test_sampling_that_would_replace_a_request_field_is_rejected(self, key):
        data = minimal_config()
        data["llm"]["default"] = {
            "kind": "remote", "endpoint": "http://x", "model": "m",
            "sampling": {"temperature": 0, key: []},
        }
        message = f"^config.llm.default: provider sampling must not set '{key}'"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "name,value",
        [("batch_size", 1), ("dimension", 1), ("max_in_flight", 1), ("max_retries", 1),
         ("timeout", 0.5), ("min_interval", 0), ("min_interval", 0.25)],
        ids=repr,
    )
    def test_provider_numeric_field_at_its_bound_accepted(self, name, value):
        assert getattr(ProviderConfig(kind="remote", **{name: value}), name) == value

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"corrective": "false"}, "config.retry.corrective must be true or false, got 'false'"),
            ({"same_type_filter": 1},
             "config.retrieval.same_type_filter must be true or false, got 1"),
            ({"cache": 5}, "config.paths.cache must be a string or null, got 5"),
            ({"learned": {"kind": "file"}},
             "config.gate.learned must be a provider object or null, got {'kind': 'file'}"),
            ({"llm_overrides": []}, "config.llm must be an object, got []"),
        ],
        ids=repr,
    )
    def test_replace_is_type_checked(self, changes, message):
        cfg = PipelineConfig.from_dict(minimal_config())
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, **changes)

    def test_provider_replace_is_type_checked(self):
        provider = PipelineConfig.from_dict(minimal_config()).llm_default
        with pytest.raises(ConfigError, match=r"^provider sampling must be an object, got 'x'$"):
            dataclasses.replace(provider, sampling="x")

    def test_unknown_gate_policy_rejected(self):
        data = minimal_config()
        data["gate"] = {"policy": "majority"}
        with pytest.raises(GateError):
            PipelineConfig.from_dict(data)

    def test_override_for_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown stage 'verify'"):
            PipelineConfig(
                gold="g",
                transcripts="t",
                support="s",
                output_dir="o",
                llm_overrides={"verify": ProviderConfig(kind="mock")},
            )


class TestHashing:
    def test_hash_ignores_json_key_order(self):
        data = minimal_config()
        reordered = json.loads(json.dumps(data))
        reordered["llm"] = dict(reversed(list(data["llm"].items())))
        reordered = {k: reordered[k] for k in reversed(list(reordered))}
        a = PipelineConfig.from_dict(data)
        b = PipelineConfig.from_dict(reordered)
        assert a.config_hash() == b.config_hash()

    def test_hash_is_short_hex(self):
        h = PipelineConfig.from_dict(minimal_config()).config_hash()
        assert len(h) == 16
        int(h, 16)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.setdefault("gate", {}).update(policy="rule"),
            lambda d: d.setdefault("gate", {}).update(threshold=0.4),
            lambda d: d.setdefault("retrieval", {}).update(k=5),
            lambda d: d.setdefault("retry", {}).update(max_attempts=2),
            lambda d: d.setdefault("concurrency", {}).update(workers=1),
            lambda d: d.setdefault("scoring", {}).update(set_semantics=True),
            lambda d: d["paths"].update(output_dir="elsewhere"),
            lambda d: d["llm"]["default"].update(name="other"),
        ],
    )
    def test_hash_sees_every_section(self, mutate):
        baseline = PipelineConfig.from_dict(minimal_config()).config_hash()
        data = minimal_config()
        mutate(data)
        assert PipelineConfig.from_dict(data).config_hash() != baseline

    def test_known_config_hashes_are_pinned(self):
        # Every ProviderConfig field, in declaration order, feeds the hash.
        data = minimal_config()
        data["gate"] = {"learned": {"kind": "file", "path": "data/verdicts.jsonl"}}
        data["retrieval"] = {
            "embedding": {"kind": "remote", "endpoint": "http://127.0.0.1:9/embed", "batch_size": 16}
        }
        data["llm"]["trigger"] = {
            "kind": "remote",
            "endpoint": "http://127.0.0.1:9/chat",
            "model": "m",
            "api_key_env": "KEY",
            "sampling": {"temperature": 0.2},
        }
        assert PipelineConfig.from_dict(minimal_config()).config_hash() == "00ecf4c0c5bdb784"
        assert PipelineConfig.from_dict(data).config_hash() == "421144d77bb90203"

    def test_round_trip_through_to_dict(self):
        data = minimal_config()
        data["gate"] = {"policy": "two+", "learned": {"kind": "file", "path": "l.jsonl"}}
        data["llm"]["format"] = {"kind": "mock", "script": "fix.json"}
        cfg = PipelineConfig.from_dict(data)
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()


class TestReadme:
    def test_configuration_block_shows_the_defaults(self):
        # Every key README's Configuration block shows exists, and every optional
        # value it shows is the default.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
        data = json.loads(re.sub(r"//[^\n]*", "", block))
        paths = data["paths"]
        bare = PipelineConfig(
            gold=paths["gold"],
            transcripts=paths["transcripts"],
            support=paths["support"],
            output_dir=paths["output_dir"],
            llm_default=ProviderConfig(**data["llm"]["default"]),
        )
        assert PipelineConfig.from_dict(data) == bare


class TestLoad:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()), encoding="utf-8")
        cfg = PipelineConfig.load(path)
        assert cfg.gold == "data/gold.jsonl"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.load(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            PipelineConfig.load(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            PipelineConfig.load(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"paths": "caf\xff"}')
        with pytest.raises(ConfigError, match="invalid UTF-8"):
            PipelineConfig.load(path)


class TestBuilders:
    def test_mock_llm_provider(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"s1/presence": "YES"}), encoding="utf-8")
        provider = build_llm_provider(ProviderConfig(kind="mock", script=str(script), name="m1"))
        assert isinstance(provider, ScriptedMockLlm)

    def test_mock_llm_needs_script(self):
        with pytest.raises(ConfigError, match="script"):
            build_llm_provider(ProviderConfig(kind="mock"))

    def test_remote_llm_provider(self, monkeypatch):
        cfg = ProviderConfig(
            kind="remote", endpoint="http://127.0.0.1:1/v1", model="m", api_key_env=None
        )
        assert isinstance(build_llm_provider(cfg), HttpLlmProvider)

    def test_remote_llm_needs_endpoint_and_model(self):
        with pytest.raises(ConfigError, match="endpoint"):
            build_llm_provider(ProviderConfig(kind="remote", model="m"))
        with pytest.raises(ConfigError):
            build_llm_provider(ProviderConfig(kind="remote", endpoint="http://x"))

    @pytest.mark.parametrize(
        "build,what",
        [(build_llm_provider, "completion endpoint"),
         (build_embedding_provider, "embedding endpoint"),
         (build_verdict_provider, "learned-classifier endpoint")],
        ids=["chat", "embed", "verdict"],
    )
    def test_every_remote_kind_reaches_its_endpoint_as_configured(self, build, what):
        default = build(ProviderConfig(kind="remote", endpoint="http://x/1", model="m")).endpoint
        assert (default.timeout, default.max_retries, default.max_in_flight) == (60.0, 3, 4)
        assert (default.api_key_env, default.min_interval) == (None, 0.0)
        cfg = ProviderConfig(
            kind="remote", endpoint="http://x/2", model="m", api_key_env="KEY", timeout=5,
            max_retries=2, max_in_flight=3, min_interval=0.5,
        )
        endpoint = build(cfg).endpoint
        assert (endpoint.url, endpoint.what, endpoint.api_key_env) == ("http://x/2", what, "KEY")
        assert (endpoint.timeout, endpoint.max_retries) == (5, 2)
        assert (endpoint.max_in_flight, endpoint.min_interval) == (3, 0.5)

    def test_file_kind_not_usable_for_llm(self):
        with pytest.raises(ConfigError, match="not usable"):
            build_llm_provider(ProviderConfig(kind="file", path="x"))

    def test_embedding_providers(self):
        emb = build_embedding_provider(ProviderConfig(kind="mock", dimension=32))
        assert isinstance(emb, HashedBagEmbedder)
        assert emb.dimension == 32
        remote = build_embedding_provider(
            ProviderConfig(kind="remote", endpoint="http://127.0.0.1:1/embed")
        )
        assert isinstance(remote, HttpEmbeddingProvider)
        assert (remote.batch_size, remote.endpoint.max_in_flight) == (64, 4)
        remote = build_embedding_provider(
            ProviderConfig(kind="remote", endpoint="http://x", batch_size=8, max_in_flight=2)
        )
        assert (remote.batch_size, remote.endpoint.max_in_flight) == (8, 2)
        with pytest.raises(ConfigError, match="endpoint"):
            build_embedding_provider(ProviderConfig(kind="remote"))
        with pytest.raises(ConfigError, match="not usable"):
            build_embedding_provider(ProviderConfig(kind="file", path="x"))

    def test_verdict_providers(self, tmp_path):
        learned = tmp_path / "learned.jsonl"
        learned.write_text(json.dumps({"id": "s1", "p": 0.9}) + "\n", encoding="utf-8")
        provider = build_verdict_provider(ProviderConfig(kind="file", path=str(learned)))
        assert isinstance(provider, FileVerdictProvider)
        remote = build_verdict_provider(
            ProviderConfig(kind="remote", endpoint="http://127.0.0.1:1/classify")
        )
        assert isinstance(remote, HttpVerdictProvider)
        assert (remote.batch_size, remote.endpoint.max_in_flight) == (64, 4)
        remote = build_verdict_provider(
            ProviderConfig(kind="remote", endpoint="http://x", batch_size=8, max_in_flight=2)
        )
        assert (remote.batch_size, remote.endpoint.max_in_flight) == (8, 2)
        with pytest.raises(ConfigError, match="path"):
            build_verdict_provider(ProviderConfig(kind="file"))
        with pytest.raises(ConfigError, match="endpoint"):
            build_verdict_provider(ProviderConfig(kind="remote"))
        with pytest.raises(ConfigError, match="not usable"):
            build_verdict_provider(ProviderConfig(kind="mock"))


class TestSecretHandling:
    def test_config_stores_env_var_name_never_key_material(self, monkeypatch):
        monkeypatch.setenv("EXTRACTOR_API_KEY", "sk-top-secret-value")
        data = minimal_config()
        data["llm"]["default"] = {
            "kind": "remote",
            "endpoint": "http://127.0.0.1:1/v1",
            "model": "m",
            "api_key_env": "EXTRACTOR_API_KEY",
        }
        cfg = PipelineConfig.from_dict(data)
        serialized = json.dumps(cfg.to_dict())
        assert "EXTRACTOR_API_KEY" in serialized
        assert "sk-top-secret-value" not in serialized
        assert "sk-top-secret-value" not in cfg.config_hash()
