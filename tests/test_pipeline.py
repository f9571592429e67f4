"""End-to-end pipeline runs over the scripted corpus: artifacts, resume, determinism."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest

from conftest import build_golden_corpus
from eventpipe.config import ConfigError
from eventpipe.llm import ResponseCache
from eventpipe.model import DatasetError, load_gold
from eventpipe.pipeline import (
    Pipeline,
    ResumeError,
    read_artifact,
    write_artifact,
)

ARTIFACTS = ("gate.jsonl", "triggers.jsonl", "arguments.jsonl", "final.jsonl")


def snapshot(out_dir: Path) -> dict[str, bytes]:
    names = ARTIFACTS + ("predictions.jsonl", "report.json")
    return {name: (out_dir / name).read_bytes() for name in names}


# sha256 prefixes of the golden run's outputs. Artifact headers are left out
# because the config hash covers the corpus's temporary paths.
GOLDEN_DIGESTS = {
    "gate.jsonl": "d4c8ebafae3e9959",
    "triggers.jsonl": "698f1a42b1afef89",
    "arguments.jsonl": "e21060ea949f2049",
    "final.jsonl": "879acdb8561a9aa5",
    "predictions.jsonl": "879acdb8561a9aa5",
    "report.json": "3eeecbee4e3b6d55",
}


def digests(out_dir: Path) -> dict[str, str]:
    out = {}
    for name, data in snapshot(out_dir).items():
        if name in ARTIFACTS:
            data = data.split(b"\n", 1)[1]
        out[name] = hashlib.sha256(data).hexdigest()[:16]
    return out


class TestArtifactIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gate.jsonl"
        rows = [{"id": "s1", "rule": True}, {"id": "s2", "rule": False}]
        write_artifact(path, "gate", "abc123", rows)
        assert read_artifact(path, "gate", "abc123") == rows

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "gate.jsonl"
        write_artifact(path, "gate", "abc123", [{"id": "s1"}])
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert first == {"stage": "gate", "config_hash": "abc123"}

    def test_missing_file_returns_none(self, tmp_path):
        assert read_artifact(tmp_path / "nope.jsonl", "gate", "abc") is None

    def test_stage_mismatch(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_artifact(path, "gate", "abc", [])
        with pytest.raises(ResumeError, match="stage 'gate', not 'triggers'"):
            read_artifact(path, "triggers", "abc")

    def test_hash_mismatch_names_the_remedy(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_artifact(path, "gate", "abc", [])
        with pytest.raises(ResumeError, match="delete the output directory"):
            read_artifact(path, "gate", "def")

    def test_empty_artifact_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ResumeError, match="empty artifact"):
            read_artifact(path, "gate", "abc")

    def test_rows_serialized_with_sorted_keys(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_artifact(path, "gate", "abc", [{"zeta": 1, "alpha": 2}])
        body = path.read_text(encoding="utf-8").splitlines()[1]
        assert body == '{"alpha": 2, "zeta": 1}'


class TestGoldenRun:
    def test_full_run_counts_and_scores(self, golden_corpus):
        result = Pipeline(golden_corpus.config).run()

        assert result.gated_in == golden_corpus.gated_in_all
        assert result.gated_out == golden_corpus.n_segments - golden_corpus.gated_in_all
        assert result.trigger_failures == list(golden_corpus.trigger_failures)
        assert result.argument_degraded == []
        assert result.formatting_attempts == 1
        assert result.resumed_stages == []

        tc, ac = result.report.tc, result.report.ac
        assert (tc.tp, tc.n_pred, tc.n_gold) == golden_corpus.tc_counts
        assert (ac.tp, ac.n_pred, ac.n_gold) == golden_corpus.ac_counts
        assert result.report.gated_out == 20
        assert result.report.extraction_failed == 1

        # One presence call per segment plus one unparseable re-ask; trigger
        # and argument calls cover retries; a single formatting repair.
        assert result.provider_calls == {
            "argument": 13,
            "format": 1,
            "presence": 31,
            "trigger": 13,
            "total": 58,
        }
        # 12 support examples plus one query embedding per extraction call
        # that actually retrieved (10 trigger segments, 9 argument segments).
        assert result.texts_embedded == 31

    @pytest.mark.parametrize("workers", [1, 4])
    def test_outputs_match_pinned_digests(self, tmp_path, workers):
        corpus = build_golden_corpus(tmp_path / "corpus", workers=workers)
        Pipeline(corpus.config).run()
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS

    def test_accepted_no_argument_reply_is_not_repaired(self, golden_corpus):
        script = json.loads(golden_corpus.script_path.read_text(encoding="utf-8"))
        script["seg-001/argument"] = "There are no arguments."
        golden_corpus.script_path.write_text(json.dumps(script), encoding="utf-8")
        result = Pipeline(golden_corpus.config).run()
        # The only formatting call is seg-005's, whose reply holds no JSON.
        assert result.provider_calls["format"] == 1
        assert result.argument_degraded == []
        lines = result.predictions_path.read_text(encoding="utf-8").splitlines()
        events = {row["id"]: row["event"] for row in map(json.loads, lines)}
        assert events["seg-001"] == [{"trigger": "election", "type": "Elect", "arguments": []}]

    def test_all_artifacts_written_with_matching_headers(self, golden_corpus):
        pipeline = Pipeline(golden_corpus.config)
        pipeline.run()
        for name in ARTIFACTS:
            lines = (golden_corpus.output_dir / name).read_text(encoding="utf-8").splitlines()
            header = json.loads(lines[0])
            assert header["stage"] == name.removesuffix(".jsonl")
            assert header["config_hash"] == pipeline.config_hash

    def test_artifacts_carry_no_timestamps(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        for name in ARTIFACTS + ("predictions.jsonl",):
            text = (golden_corpus.output_dir / name).read_text(encoding="utf-8")
            for marker in ("time", "date", "elapsed"):
                assert marker not in text
        run_meta = json.loads((golden_corpus.output_dir / "run.json").read_text())
        assert run_meta["started_at"] <= run_meta["finished_at"]

    def test_gated_out_segments_predict_no_events(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        rows = [
            json.loads(line)
            for line in (golden_corpus.output_dir / "predictions.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert len(rows) == golden_corpus.n_segments
        assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
        by_id = {r["id"]: r["event"] for r in rows}
        assert by_id["seg-011"] == []
        assert by_id["seg-001"] != []

    def test_predictions_loadable_as_gold(self, golden_corpus, ontology):
        Pipeline(golden_corpus.config).run()
        loaded = load_gold(golden_corpus.output_dir / "predictions.jsonl", ontology)
        assert len(loaded) == golden_corpus.n_segments
        for labeled in loaded:
            for ev in labeled.gold_events:
                ev.validate(ontology, record_id=labeled.segment.id)

    def test_stop_after_gate(self, golden_corpus):
        result = Pipeline(golden_corpus.config).run(until="gate")
        assert result.gated_in == 10
        assert result.report is None
        assert result.predictions_path is None
        assert (golden_corpus.output_dir / "gate.jsonl").exists()
        assert not (golden_corpus.output_dir / "triggers.jsonl").exists()
        assert result.provider_calls == {"presence": 31, "total": 31}

    def test_unknown_stage_rejected(self, golden_corpus):
        with pytest.raises(ConfigError, match="unknown stage"):
            Pipeline(golden_corpus.config).run(until="publish")

    def test_stray_transcript_id_rejected(self, golden_corpus):
        with open(golden_corpus.transcripts_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "seg-999", "text": "stray"}) + "\n")
        with pytest.raises(DatasetError, match="seg-999"):
            Pipeline(golden_corpus.config).run()


class TestDeterminismAndResume:
    def test_two_fresh_runs_are_byte_identical(self, golden_corpus):
        first = Pipeline(golden_corpus.config).run()
        bytes_first = snapshot(golden_corpus.output_dir)
        for name in ARTIFACTS + ("predictions.jsonl", "report.json", "run.json"):
            (golden_corpus.output_dir / name).unlink()

        second = Pipeline(golden_corpus.config).run()
        assert snapshot(golden_corpus.output_dir) == bytes_first
        # Every completion was already cached by the first run.
        assert second.provider_calls["total"] == 0
        assert first.report == second.report

    def test_resume_loads_stages_without_provider_calls(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        bytes_first = snapshot(golden_corpus.output_dir)

        resumed = Pipeline(golden_corpus.config, resume=True).run()
        assert resumed.resumed_stages == ["gate", "triggers", "arguments", "final"]
        assert resumed.provider_calls["total"] == 0
        assert resumed.texts_embedded == 0
        assert snapshot(golden_corpus.output_dir) == bytes_first
        tc = resumed.report.tc
        assert (tc.tp, tc.n_pred, tc.n_gold) == golden_corpus.tc_counts

    def test_stage_by_stage_resume_matches_one_shot_run(self, tmp_path):
        corpus = build_golden_corpus(tmp_path / "steps", with_cache=False)
        steps = []
        for until in ("gate", "triggers", "arguments", "final", "score"):
            result = Pipeline(corpus.config, resume=True).run(until=until)
            steps.append((result.provider_calls["total"], result.texts_embedded))
        # Each step replays the earlier stages and pays only for its own; the
        # index (12 support texts) is built only by the retrieving stages.
        assert steps == [(31, 0), (13, 22), (13, 21), (1, 0), (0, 0)]
        assert result.resumed_stages == ["gate", "triggers", "arguments", "final"]
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS

    def test_cache_is_opened_once_per_run(self, golden_corpus, monkeypatch):
        opened = []
        original = ResponseCache.__init__

        def slow_init(self, path):
            # Widens the window in which a second thread could build its own cache.
            time.sleep(0.05)
            opened.append(path)
            original(self, path)

        monkeypatch.setattr(ResponseCache, "__init__", slow_init)
        Pipeline(golden_corpus.config).run(until="gate")
        assert len(opened) == 1

    def test_resume_rejects_artifacts_from_other_config(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        changed = dataclasses.replace(golden_corpus.config, gate_policy="rule")
        with pytest.raises(ResumeError, match="does not match"):
            Pipeline(changed, resume=True).run()

    def test_fresh_run_overwrites_foreign_artifacts(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        changed = dataclasses.replace(golden_corpus.config, gate_policy="rule")
        result = Pipeline(changed).run()
        assert result.gated_in == 14
        header = json.loads(
            (golden_corpus.output_dir / "gate.jsonl").read_text().splitlines()[0]
        )
        assert header["config_hash"] == changed.config_hash()

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        serial = build_golden_corpus(tmp_path / "serial", workers=1)
        threaded = build_golden_corpus(tmp_path / "threaded", workers=4)
        Pipeline(serial.config).run()
        Pipeline(threaded.config).run()
        for name in ("predictions.jsonl", "report.json"):
            assert (serial.output_dir / name).read_bytes() == (
                threaded.output_dir / name
            ).read_bytes()

    def test_cacheless_run_pays_for_every_call_again(self, tmp_path):
        corpus = build_golden_corpus(tmp_path / "nocache", with_cache=False)
        first = Pipeline(corpus.config).run()
        for name in ARTIFACTS + ("predictions.jsonl", "report.json", "run.json"):
            (corpus.output_dir / name).unlink()
        second = Pipeline(corpus.config).run()
        assert first.provider_calls == second.provider_calls
        assert second.provider_calls["total"] == 58


class TestPolicyVariants:
    @pytest.mark.parametrize("policy", ["without", "rule", "one+"])
    def test_gated_in_matches_designed_matrix(self, tmp_path, policy):
        corpus = build_golden_corpus(tmp_path / policy, policy=policy)
        result = Pipeline(corpus.config).run(until="gate")
        assert result.gated_in == corpus.policy_gated_in[policy]

    def test_disabled_gate_reaches_hallucinated_segments(self, tmp_path):
        corpus = build_golden_corpus(tmp_path / "without", policy="without")
        result = Pipeline(corpus.config).run()
        tc = result.report.tc
        assert (tc.tp, tc.n_pred, tc.n_gold) == corpus.policy_tc["without"]
        # Five hallucinated predictions drag precision below the gated run.
        assert tc.precision < 0.75

    def test_verdicts_recorded_for_every_segment_regardless_of_policy(self, tmp_path):
        corpus = build_golden_corpus(tmp_path / "verdicts", policy="rule")
        Pipeline(corpus.config).run(until="gate")
        rows = [
            json.loads(line)
            for line in (corpus.output_dir / "gate.jsonl").read_text().splitlines()[1:]
        ]
        assert len(rows) == corpus.n_segments
        for row in rows:
            expected = corpus.verdicts[row["id"]]
            assert (row["rule"], row["learned"], row["llm"]) == expected
            assert row["gated_in"] == row["rule"]
