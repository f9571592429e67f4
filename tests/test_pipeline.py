"""End-to-end pipeline runs over the scripted corpus: artifacts, resume, determinism."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEARNED_P, TRANSCRIPT_TEXTS, build_golden_corpus, expected_verdicts
import eventpipe.pipeline as pipeline_module
from eventpipe import extract, model, retrieval
from eventpipe.config import ConfigError, ProviderConfig
from eventpipe.llm import MockMissError, ResponseCache, ScriptedMockLlm
from eventpipe.model import DatasetError, check_event, default_ontology_path, load_gold
from eventpipe.pipeline import (
    STAGE_ORDER,
    STAGES,
    Pipeline,
    ResumeError,
    read_artifact,
    write_artifact,
)
from eventpipe.prompts import TemplateError
from eventpipe.retrieval import (
    EmbeddingError,
    HashedBagEmbedder,
    SupportIndex,
    build_index,
    load_index,
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

# sha256 prefix of the golden run's cache lines, sorted. Each cache key hashes
# the exact prompt messages, so this pins the rendered prompt bytes, which the
# mock script (keyed by segment and stage) cannot tell apart.
GOLDEN_CACHE_DIGEST = "711968d297189be9"

# With same_type_filter on, only the argument rows' examples differ from the
# golden run: each is the top k among support examples of its predicted types.
FILTERED_ARGUMENTS_DIGEST = "aaa731bcf899658d"


def digests_of(artifact: Path) -> str:
    """sha256 prefix of an artifact's rows, without its header."""
    return hashlib.sha256(artifact.read_bytes().split(b"\n", 1)[1]).hexdigest()[:16]


def digests(out_dir: Path) -> dict[str, str]:
    out = {}
    for name, data in snapshot(out_dir).items():
        if name in ARTIFACTS:
            data = data.split(b"\n", 1)[1]
        out[name] = hashlib.sha256(data).hexdigest()[:16]
    return out


def cache_digest(path: Path) -> str:
    """sha256 prefix of a cache file's lines, sorted and joined by newlines."""
    return hashlib.sha256(b"\n".join(sorted(path.read_bytes().splitlines()))).hexdigest()[:16]


class _RowReads(np.ndarray):
    """A matrix view that records the key of every Python-level read of its rows."""

    reads: list | None = None

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", None)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def _count_scans(monkeypatch, index: SupportIndex) -> list[int]:
    """Record the query count of each float32 scan, asserting that it scans index's whole matrix."""
    scans = []
    approx_scores = retrieval._approx_scores

    def counted(vectors, queries):
        assert vectors is index.vectors
        scores, max_square = approx_scores(vectors, queries)
        assert scores.dtype == np.float32 and scores.shape == (len(vectors), len(queries))
        scans.append(len(queries))
        return scores, max_square

    monkeypatch.setattr(retrieval, "_approx_scores", counted)
    return scans


def gate_row(sid: str, rule: bool) -> dict:
    return {"id": sid, "rule": rule, "learned": False, "llm": False, "gated_in": rule}


class TestArtifactIO:
    def test_round_trip(self, tmp_path, ontology):
        path = tmp_path / "gate.jsonl"
        rows = [gate_row("s1", True), gate_row("s2", False)]
        write_artifact(path, "gate", "abc123", "in1", rows)
        assert read_artifact(path, "gate", "abc123", "in1", ontology) == rows

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "gate.jsonl"
        write_artifact(path, "gate", "abc123", "in1", [{"id": "s1"}])
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert first == {"stage": "gate", "config_hash": "abc123", "inputs": "in1"}

    def test_missing_file_returns_none(self, tmp_path, ontology):
        assert read_artifact(tmp_path / "nope.jsonl", "gate", "abc", "in1", ontology) is None

    def test_stage_mismatch(self, tmp_path, ontology):
        path = tmp_path / "x.jsonl"
        write_artifact(path, "gate", "abc", "in1", [])
        with pytest.raises(ResumeError, match="stage 'gate', not 'triggers'"):
            read_artifact(path, "triggers", "abc", "in1", ontology)

    def test_hash_mismatch_names_the_remedy(self, tmp_path, ontology):
        path = tmp_path / "x.jsonl"
        write_artifact(path, "gate", "abc", "in1", [])
        with pytest.raises(ResumeError, match="delete the output directory"):
            read_artifact(path, "gate", "def", "in1", ontology)

    def test_empty_artifact_rejected(self, tmp_path, ontology):
        path = tmp_path / "x.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ResumeError, match="empty artifact"):
            read_artifact(path, "gate", "abc", "in1", ontology)

    def test_failed_rewrite_keeps_previous_artifact(self, tmp_path, monkeypatch, ontology):
        path = tmp_path / "gate.jsonl"
        rows = [gate_row("s1", True), gate_row("s2", False)]
        write_artifact(path, "gate", "abc", "in1", rows)
        real_open = Path.open

        def disk_fills_up(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            if "w" in (args[0] if args else kwargs.get("mode", "r")):
                real_write = fh.write

                def torn_write(text):
                    real_write(text[: len(text) // 2])
                    raise OSError(28, "No space left on device")

                fh.write = torn_write
            return fh

        monkeypatch.setattr(Path, "open", disk_fills_up)
        with pytest.raises(OSError, match="No space left"):
            write_artifact(path, "gate", "abc", "in1", [gate_row("s3", True)])
        monkeypatch.undo()
        assert read_artifact(path, "gate", "abc", "in1", ontology) == rows
        assert [p.name for p in tmp_path.iterdir()] == ["gate.jsonl"]

    def test_rows_serialized_with_sorted_keys(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_artifact(path, "gate", "abc", "in1", [{"zeta": 1, "alpha": 2}])
        body = path.read_text(encoding="utf-8").splitlines()[1]
        assert body == '{"alpha": 2, "zeta": 1}'

    def test_artifact_from_other_inputs_is_not_replayed(self, tmp_path, ontology):
        # Only the header is read: the body after it is not even valid UTF-8.
        path = tmp_path / "gate.jsonl"
        write_artifact(path, "gate", "abc", "in1", [gate_row("s1", True)])
        with path.open("ab") as fh:
            fh.write(b'{"id": "s2", "rule": "\xff"}\n')
        assert read_artifact(path, "gate", "abc", "in2", ontology) is None
        with pytest.raises(DatasetError, match="invalid UTF-8 at line 3"):
            read_artifact(path, "gate", "abc", "in1", ontology)


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
        # 12 support examples plus one query embedding per gated-in segment
        # (10), which its trigger and argument stages share.
        assert result.texts_embedded == 22

    @pytest.mark.usefixtures("waiting_mock")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_outputs_match_pinned_digests(self, tmp_path, workers):
        corpus = build_golden_corpus(tmp_path / "corpus", workers=workers)
        Pipeline(corpus.config).run()
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS
        assert len(corpus.cache_path.read_bytes().splitlines()) == 58
        assert cache_digest(corpus.cache_path) == GOLDEN_CACHE_DIGEST

    @pytest.mark.usefixtures("waiting_mock")
    @pytest.mark.parametrize("same_type_filter", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_outputs_hold_when_the_scan_runs_on_the_caller_beside_the_pool(
        self, tmp_path, monkeypatch, workers, same_type_filter
    ):
        # With more than one worker the chat calls run on the run's pool, and
        # the query phase's one search still scans on the calling thread.
        main = threading.main_thread()
        scans, calls = [], []
        approx_scores, complete = retrieval._approx_scores, ScriptedMockLlm.complete

        def recorded_scan(*args):
            scans.append(threading.current_thread())
            return approx_scores(*args)

        def recorded_complete(provider, bundle):
            calls.append(threading.current_thread())
            return complete(provider, bundle)

        monkeypatch.setattr(retrieval, "_approx_scores", recorded_scan)
        monkeypatch.setattr(ScriptedMockLlm, "complete", recorded_complete)
        corpus = build_golden_corpus(tmp_path / "corpus", workers=workers)
        config = dataclasses.replace(corpus.config, same_type_filter=same_type_filter)
        Pipeline(config).run()
        assert scans == [main]
        assert len(calls) == 58 and {thread is main for thread in calls} == {workers == 1}
        if same_type_filter:
            want = {**GOLDEN_DIGESTS, "arguments.jsonl": FILTERED_ARGUMENTS_DIGEST}
            assert digests(corpus.output_dir) == want
        else:
            assert digests(corpus.output_dir) == GOLDEN_DIGESTS
            assert cache_digest(corpus.cache_path) == GOLDEN_CACHE_DIGEST

    def test_a_run_whose_providers_answer_in_process_starts_no_thread(self, tmp_path, monkeypatch):
        # The scripted mock waits on nothing, so even at workers=4 the run has
        # no pool: every provider call and the scan are on the caller.
        started, calls, scans = [], [], []
        start, complete = threading.Thread.start, ScriptedMockLlm.complete
        approx_scores = retrieval._approx_scores

        def recorded_start(thread):
            started.append(thread)
            return start(thread)

        def recorded_complete(provider, bundle):
            calls.append((bundle.stage, threading.current_thread()))
            return complete(provider, bundle)

        def recorded_scan(*args):
            scans.append(threading.current_thread())
            return approx_scores(*args)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        monkeypatch.setattr(ScriptedMockLlm, "complete", recorded_complete)
        monkeypatch.setattr(retrieval, "_approx_scores", recorded_scan)
        corpus = build_golden_corpus(tmp_path / "corpus", workers=4)
        Pipeline(corpus.config).run()
        assert started == []
        assert {stage for stage, _ in calls} == {"presence", "trigger", "argument", "format"}
        assert len(calls) == 58 and len(scans) == 1
        assert {thread for _, thread in calls} | set(scans) == {threading.main_thread()}
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_provider_that_cannot_be_built_fails_before_any_call(
        self, tmp_path, monkeypatch, workers
    ):
        # The run builds every computed stage's chat provider before the gate
        # phase, so a broken argument provider costs no presence call.
        calls = []
        complete = ScriptedMockLlm.complete
        monkeypatch.setattr(
            ScriptedMockLlm, "complete", lambda llm, b: calls.append(b) or complete(llm, b)
        )
        corpus = build_golden_corpus(tmp_path / "corpus", workers=workers)
        broken = ProviderConfig(kind="remote", endpoint="http://127.0.0.1:9")
        config = dataclasses.replace(corpus.config, llm_overrides={"argument": broken})
        with pytest.raises(ConfigError, match="needs a 'model'"):
            Pipeline(config).run()
        assert calls == []
        assert not corpus.output_dir.exists() or list(corpus.output_dir.iterdir()) == []

    @pytest.mark.usefixtures("waiting_mock")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_reply_is_parsed_once(self, tmp_path, monkeypatch, workers):
        # A cold-cache run recovers JSON once per trigger, argument and
        # formatting completion: repair reads the argument reply's records.
        parsed = []
        recover = extract.recover_json_tail
        for module in ("extract", "pipeline"):
            monkeypatch.setattr(
                f"eventpipe.{module}.recover_json_tail",
                lambda raw: parsed.append(raw) or recover(raw),
            )
        corpus = build_golden_corpus(tmp_path / "corpus", workers=workers)
        calls = Pipeline(corpus.config).run().provider_calls
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS
        assert calls["format"] > 0
        assert len(parsed) == calls["trigger"] + calls["argument"] + calls["format"]

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
        result = pipeline.run()
        assert result.inputs == Pipeline(golden_corpus.config).inputs_digest()
        for name in ARTIFACTS:
            lines = (golden_corpus.output_dir / name).read_text(encoding="utf-8").splitlines()
            header = json.loads(lines[0])
            assert header["stage"] == name.removesuffix(".jsonl")
            assert header["config_hash"] == pipeline.config_hash
            assert header["inputs"] == result.inputs
        run_meta = json.loads((golden_corpus.output_dir / "run.json").read_text())
        assert run_meta["inputs"] == result.inputs

    def test_each_computed_row_holds_exactly_its_stage_fields(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        for stage in STAGES:
            path = golden_corpus.output_dir / f"{stage.name}.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines()
            rows = [json.loads(line) for line in lines[1:]]
            assert rows
            assert [sorted(row) for row in rows] == [sorted(stage.fields)] * len(rows)

    def test_artifacts_carry_no_timestamps(self, golden_corpus):
        Pipeline(golden_corpus.config).run()
        for name in ARTIFACTS + ("predictions.jsonl",):
            text = (golden_corpus.output_dir / name).read_text(encoding="utf-8")
            for marker in ("time", "date", "elapsed"):
                assert marker not in text
        run_meta = json.loads((golden_corpus.output_dir / "run.json").read_text())
        assert run_meta["started_at"] <= run_meta["finished_at"]

    @pytest.mark.parametrize("until", ["gate", "score"])
    def test_run_json_is_the_result(self, golden_corpus, until):
        before = time.time()
        result = Pipeline(golden_corpus.config).run(until)
        after = time.time()
        run_meta = json.loads((golden_corpus.output_dir / "run.json").read_text())
        assert set(run_meta) == {
            "argument_degraded", "config_hash", "finished_at", "formatting_attempts", "gated_in",
            "gated_out", "inputs", "provider_calls", "resumed_stages", "score", "started_at",
            "texts_embedded", "trigger_failures", "until",
        }
        assert run_meta.pop("score") == (result.report.to_dict() if result.report else None)
        for key, value in run_meta.items():
            assert value == getattr(result, key), key
        assert result.until == until
        assert before <= result.started_at <= result.finished_at <= after

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
                assert check_event(ev, labeled.id, ontology) == ev

    def test_stop_after_gate(self, golden_corpus):
        result = Pipeline(golden_corpus.config).run(until="gate")
        assert result.gated_in == 10
        assert result.report is None
        assert result.predictions_path is None
        assert (golden_corpus.output_dir / "gate.jsonl").exists()
        assert not (golden_corpus.output_dir / "triggers.jsonl").exists()
        assert result.provider_calls == {"presence": 31, "total": 31}

    def test_a_pipeline_serves_one_run(self, golden_corpus):
        pipeline = Pipeline(golden_corpus.config)
        pipeline.run(until="gate")
        with pytest.raises(RuntimeError, match="serves one run"):
            pipeline.run()

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

    @pytest.mark.parametrize("deleted", range(len(ARTIFACTS)))
    def test_resume_replays_only_the_stages_before_a_missing_artifact(
        self, golden_corpus, deleted
    ):
        # A recomputed stage may change the rows that every later stage read
        # (a remote gate can gate out a segment whose replayed final row holds
        # events), so no later stage is replayed, though its artifact is there.
        Pipeline(golden_corpus.config).run()
        (golden_corpus.output_dir / ARTIFACTS[deleted]).unlink()
        resumed = Pipeline(golden_corpus.config, resume=True).run()
        assert resumed.resumed_stages == [stage.name for stage in STAGES][:deleted]
        assert resumed.provider_calls["total"] == 0
        assert digests(golden_corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("kept", [3, 4])
    def test_run_json_counts_only_the_repairs_the_run_made(self, golden_corpus, kept):
        # The final rows do not record their repair: a run that replays them
        # reports null repair counters, not a count of zero. A resume that
        # computes the final stage counts its repairs as a one-shot run does.
        run_json = golden_corpus.output_dir / "run.json"
        Pipeline(golden_corpus.config).run()
        one_shot = json.loads(run_json.read_text(encoding="utf-8"))
        for name in ARTIFACTS[kept:]:
            (golden_corpus.output_dir / name).unlink()
        Pipeline(golden_corpus.config, resume=True).run()
        resumed = json.loads(run_json.read_text(encoding="utf-8"))
        counters = ("formatting_attempts", "argument_degraded")
        assert [one_shot[key] for key in counters] == [1, []]
        assert resumed["resumed_stages"] == ["gate", "triggers", "arguments", "final"][:kept]
        assert [resumed[key] for key in counters] == ([1, []] if kept < 4 else [None, None])
        for key in ("gated_in", "gated_out", "trigger_failures", "score", "config_hash", "inputs"):
            assert resumed[key] == one_shot[key], key

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

    @pytest.mark.parametrize(
        "dropped", ["seg-003/presence", "seg-004/trigger", "seg-008/argument", "seg-005/format"]
    )
    @pytest.mark.usefixtures("waiting_mock")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_crash_mid_run_leaves_a_resumable_state(self, tmp_path, workers, dropped):
        corpus = build_golden_corpus(tmp_path / "crash", workers=workers)
        script = corpus.script_path.read_bytes()
        broken = json.loads(script)
        del broken[dropped]
        corpus.script_path.write_text(json.dumps(broken), encoding="utf-8")
        segment, stage = dropped.split("/")
        with pytest.raises(MockMissError, match=segment):
            Pipeline(corpus.config).run()
        assert list(corpus.output_dir.iterdir()) == []
        cached = len(corpus.cache_path.read_text(encoding="utf-8").splitlines())
        corpus.script_path.write_bytes(script)
        resumed = Pipeline(corpus.config, resume=True).run()
        # The resumed run pays only for the calls the crashed run did not
        # cache: the one that failed, and those of the segments the pool had
        # not started when the failure cancelled them (timing decides how many
        # at workers > 1; one worker runs inline and stops at the failure).
        assert resumed.provider_calls[stage] >= 1
        assert resumed.provider_calls["total"] == 58 - cached
        lines = corpus.cache_path.read_text(encoding="utf-8").splitlines()
        assert len({json.loads(line)["key"] for line in lines}) == len(lines) == 58
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/self/fd")
    @pytest.mark.usefixtures("waiting_mock")
    def test_the_cache_file_closes_at_the_end_of_a_run_or_with_its_pipeline(self, golden_corpus):
        def open_files() -> set[str]:
            paths = set()
            for fd in os.listdir("/proc/self/fd"):
                try:
                    paths.add(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:  # the descriptor that listed the directory
                    pass
            return paths

        cache_path = os.path.realpath(golden_corpus.cache_path)
        pipeline = Pipeline(golden_corpus.config)
        pipeline.run()
        assert len(golden_corpus.cache_path.read_bytes().splitlines()) == 58
        assert cache_path not in open_files()  # while the pipeline lives
        dropped = Pipeline(golden_corpus.config)
        dropped.cache.put("k", "v")
        assert cache_path in open_files()
        del dropped
        gc.collect()
        assert cache_path not in open_files()

    @pytest.mark.usefixtures("waiting_mock")
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

    @pytest.mark.usefixtures("waiting_mock")
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


class TestStaleInputs:
    """--resume replays an artifact only if the input files still hold what built it."""

    def test_rewritten_verdict_file_makes_resume_recompute_the_gate(
        self, golden_corpus, ontology
    ):
        Pipeline(golden_corpus.config).run()
        golden_corpus.learned_path.write_text(
            "".join(json.dumps({"id": sid, "p": 0.0}) + "\n" for sid in sorted(TRANSCRIPT_TEXTS))
        )
        resumed = Pipeline(golden_corpus.config, resume=True).run()
        # Under the unanimous policy a learned p=0 vetoes every segment.
        assert resumed.resumed_stages == []
        assert resumed.gated_in == 0
        gate_rows = read_artifact(
            golden_corpus.output_dir / "gate.jsonl",
            "gate",
            resumed.config_hash,
            resumed.inputs,
            ontology,
        )
        assert not any(row["learned"] or row["gated_in"] for row in gate_rows)

    @pytest.mark.parametrize("name", ["transcripts", "support", "script"])
    def test_any_changed_input_changes_the_digest(self, golden_corpus, name):
        path, config = getattr(golden_corpus, f"{name}_path"), golden_corpus.config
        config_hash, before = config.config_hash(), Pipeline(config).inputs_digest()
        path.write_bytes(path.read_bytes() + b"\n")
        assert Pipeline(config).inputs_digest() != before
        assert config.config_hash() == config_hash


def write_templates(directory: Path, **system: str) -> None:
    """A templates override: per stage a system message (system[stage], or
    "<stage> judge") and a user message holding the text."""
    directory.mkdir(exist_ok=True)
    for stage in ("presence", "trigger", "argument", "format"):
        doc = {
            "stage": stage,
            "messages": [
                {"role": "system", "content": system.get(stage, f"{stage} judge")},
                {"role": "user", "content": "TEXT: {TEXT}"},
            ],
        }
        (directory / f"{stage}.json").write_text(json.dumps(doc), encoding="utf-8")


def _edit_template(corpus) -> None:
    path = corpus.root / "templates" / "trigger.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["messages"][0]["content"] = "trigger judge, second version"
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_support(corpus) -> None:
    rows = [json.loads(line) for line in corpus.support_path.read_text("utf-8").splitlines()]
    rows[0]["text"] += " in the spring"
    corpus.support_path.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


def _edit_transcript(corpus) -> None:
    rows = [json.loads(line) for line in corpus.transcripts_path.read_text("utf-8").splitlines()]
    rows[0]["text"] += " and again in june"
    corpus.transcripts_path.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


def _edit_learned(corpus) -> None:
    # Flips the learned verdict of a segment the rule keeps out, so the
    # unanimous gate still admits the same segments while gate.jsonl changes.
    flipped = min(sid for sid, (rule, _, _) in expected_verdicts().items() if not rule)
    rows = [{"id": sid, "p": LEARNED_P[sid]} for sid in sorted(LEARNED_P)]
    for row in rows:
        if row["id"] == flipped:
            row["p"] = 0.2 if row["p"] >= 0.5 else 0.9
    corpus.learned_path.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


# Rewrites of one input between a crashed run and its resume.
INPUT_EDITS = {
    "template": _edit_template,
    "support": _edit_support,
    "transcript": _edit_transcript,
    "learned": _edit_learned,
}


class TestCrashThenResume:
    """A run that crashes anywhere leaves a state that --resume completes correctly."""

    @pytest.mark.usefixtures("waiting_mock")
    @settings(max_examples=60, deadline=None)
    @given(
        workers=st.sampled_from([1, 2, 4]),
        until=st.sampled_from(STAGE_ORDER),
        edit=st.sampled_from([None, *INPUT_EDITS]),
        data=st.data(),
    )
    def test_resume_after_a_crash_matches_a_fresh_run(self, workers, until, edit, data):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = build_golden_corpus(Path(tmp) / "crash", workers=workers)
            config = corpus.config
            if edit == "template":
                write_templates(corpus.root / "templates")
                config = dataclasses.replace(config, templates=str(corpus.root / "templates"))
            script = json.loads(corpus.script_path.read_text(encoding="utf-8"))
            # Keys to drop are drawn stage first, so that each prompt stage is
            # as likely to fail as any other.
            keys = {s.prompt: [k for k in script if k.endswith(f"/{s.prompt}")] for s in STAGES}
            dropped = data.draw(
                st.lists(
                    st.sampled_from(list(keys)).flatmap(lambda p: st.sampled_from(sorted(keys[p]))),
                    min_size=1,
                    max_size=3,
                    unique=True,
                ),
                label="dropped",
            )
            corpus.script_path.write_text(
                json.dumps({k: v for k, v in script.items() if k not in dropped}), encoding="utf-8"
            )
            try:
                Pipeline(config).run(until=until)
            except MockMissError:
                assert list(corpus.output_dir.iterdir()) == []
            corpus.script_path.write_text(json.dumps(script), encoding="utf-8")
            # A run that failed at its first provider call cached nothing.
            cache = corpus.cache_path
            cached = len(cache.read_text(encoding="utf-8").splitlines()) if cache.exists() else 0
            if edit:
                INPUT_EDITS[edit](corpus)
            resumed = Pipeline(config, resume=True).run()
            lines = cache.read_text(encoding="utf-8").splitlines()
            assert len({json.loads(line)["key"] for line in lines}) == len(lines)
            if edit is None:
                assert digests(corpus.output_dir) == GOLDEN_DIGESTS
                assert resumed.provider_calls["total"] == 58 - cached
                assert len(lines) == 58
            else:
                # Nothing the crashed run left is replayed; a fresh run on the
                # changed inputs, with no cache, produces the same outputs.
                assert resumed.resumed_stages == []
                fresh = dataclasses.replace(config, output_dir=str(Path(tmp) / "fresh"), cache=None)
                Pipeline(fresh).run()
                assert digests(corpus.output_dir) == digests(Path(fresh.output_dir))


class TestInputsReadOnce:
    """Each input is read once per run, and the inputs digest hashes the bytes that are parsed."""

    # The golden corpus's inputs digest, pinned: for the same files it must
    # never change, or every existing output directory recomputes on --resume.
    GOLDEN_INPUTS = "25c0835fe8d100db"
    GOLDEN_INPUTS_WITH_TEMPLATES = "85d84064693faff6"

    def test_golden_inputs_digest_is_pinned(self, golden_corpus):
        assert Pipeline(golden_corpus.config).inputs_digest() == self.GOLDEN_INPUTS
        assert Pipeline(golden_corpus.config).run().inputs == self.GOLDEN_INPUTS

    def test_golden_inputs_digest_with_a_templates_override_is_pinned(self, golden_corpus):
        templates = golden_corpus.root / "templates"
        write_templates(templates)
        config = dataclasses.replace(golden_corpus.config, templates=str(templates))
        assert Pipeline(config).inputs_digest() == self.GOLDEN_INPUTS_WITH_TEMPLATES
        assert Pipeline(config).run().inputs == self.GOLDEN_INPUTS_WITH_TEMPLATES

    def test_template_rewritten_during_the_gate_does_not_reach_later_prompts(
        self, golden_corpus, monkeypatch
    ):
        templates, staged = golden_corpus.root / "templates", golden_corpus.root / "staged"
        write_templates(templates, trigger="trigger v1")
        write_templates(staged, trigger="trigger v2")
        config = dataclasses.replace(golden_corpus.config, templates=str(templates))
        first = Pipeline(config).inputs_digest()
        pipeline = Pipeline(config)
        inner = pipeline.llm_for("trigger")
        systems = []
        lock = threading.Lock()

        class Rewriting:
            provider_id = inner.provider_id
            waits = inner.waits

            def complete(self, bundle):
                with lock:  # the first presence call swaps in version 2, whole
                    if bundle.stage == "presence" and (staged / "trigger.json").exists():
                        os.replace(staged / "trigger.json", templates / "trigger.json")
                if bundle.stage == "trigger":
                    systems.append(bundle.messages[0].content)
                return inner.complete(bundle)

        # Every stage shares the default provider; the double stands in for it.
        rewriting = Rewriting()
        monkeypatch.setattr(pipeline, "llm_for", lambda stage: rewriting)
        result = pipeline.run()
        assert Pipeline(config).inputs_digest() != first  # the file did change mid-run
        assert systems and set(systems) == {"trigger v1"}
        assert result.inputs == first
        for name in ARTIFACTS:
            header = json.loads((golden_corpus.output_dir / name).read_text().splitlines()[0])
            assert header["inputs"] == first

    def test_support_replaced_after_it_was_parsed_is_not_hashed_again(self, golden_corpus):
        parsed = Pipeline(golden_corpus.config).inputs_digest()
        pipeline = Pipeline(golden_corpus.config)
        pipeline.support  # noqa: B018 - parses the support set
        path = golden_corpus.support_path
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
        result = pipeline.run()
        assert Pipeline(golden_corpus.config).inputs_digest() != parsed
        assert result.inputs == parsed
        assert digests(golden_corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    def test_support_replaced_after_the_digest_is_not_parsed(
        self, golden_corpus, monkeypatch, resume
    ):
        hashed = Pipeline(golden_corpus.config).inputs_digest()
        path = golden_corpus.support_path
        lines = path.read_bytes().splitlines(keepends=True)
        inputs_digest = Pipeline.inputs_digest

        def digest_then_replace(pipeline):
            # Runs after the digest is taken and before the gate builds its lexicon.
            digest = inputs_digest(pipeline)
            path.write_bytes(b"".join(lines[:-1]))
            return digest

        monkeypatch.setattr(Pipeline, "inputs_digest", digest_then_replace)
        result = Pipeline(golden_corpus.config, resume=resume).run()
        assert Pipeline(golden_corpus.config).inputs_digest() != hashed
        assert result.inputs == hashed
        assert digests(golden_corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("resume", [None, "gate", "all"], ids=["fresh", "gate", "all"])
    def test_each_input_file_is_opened_once_per_run(self, golden_corpus, monkeypatch, resume):
        root = golden_corpus.root
        ontology = root / "ontology.json"
        ontology.write_bytes(default_ontology_path().read_bytes())
        write_templates(root / "templates")
        llm_file = root / "llm_verdicts.jsonl"
        llm_file.write_text(
            "".join(
                json.dumps({"id": sid, "present": llm}) + "\n"
                for sid, (_, _, llm) in sorted(expected_verdicts().items())
            )
        )
        format_script = root / "format_script.json"
        format_script.write_bytes(golden_corpus.script_path.read_bytes())
        config = dataclasses.replace(
            golden_corpus.config,
            ontology=str(ontology),
            templates=str(root / "templates"),
            gate_llm_file=str(llm_file),
            llm_overrides={"format": ProviderConfig(kind="mock", script=str(format_script))},
        )
        inputs = [
            golden_corpus.transcripts_path,
            golden_corpus.support_path,
            ontology,
            golden_corpus.learned_path,
            llm_file,
            golden_corpus.script_path,
            format_script,
            *(root / "templates" / f"{stage.prompt}.json" for stage in STAGES),
        ]
        assert set(map(Path, config.input_files().values())) == set(inputs)
        if resume:
            Pipeline(config).run()
        if resume == "gate":  # the gate is replayed, every later stage recomputes
            for name in ARTIFACTS[1:]:
                (golden_corpus.output_dir / name).unlink()
        opened = []
        path_open = Path.open
        monkeypatch.setattr(
            Path, "open", lambda self, *a, **k: opened.append(self) or path_open(self, *a, **k)
        )
        result = Pipeline(config, resume=resume is not None).run()
        resumed = {None: [], "gate": ["gate"], "all": ["gate", "triggers", "arguments", "final"]}
        assert result.resumed_stages == resumed[resume]
        assert {path: opened.count(path) for path in inputs} == dict.fromkeys(inputs, 1)

    def test_a_file_read_again_must_hold_the_bytes_it_was_hashed_from(self, golden_corpus):
        # Two providers (the default and a renamed one) share one script file,
        # so the second reads it again.
        path = golden_corpus.script_path
        renamed = ProviderConfig(kind="mock", script=str(path), name="renamed")
        config = dataclasses.replace(golden_corpus.config, llm_overrides={"format": renamed})
        pipeline = Pipeline(config)
        pipeline.llm_for("presence")
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(DatasetError, match="input file changed during the run"):
            pipeline.llm_for("format")

    def test_golden_run_loads_each_template_at_most_once(self, golden_corpus, monkeypatch):
        import eventpipe.pipeline
        import eventpipe.prompts

        loads = []
        load_template = eventpipe.prompts.load_template

        def counting(stage, *args, **kwargs):
            loads.append(stage)
            return load_template(stage, *args, **kwargs)

        for module in (eventpipe.pipeline, eventpipe.prompts):
            monkeypatch.setattr(module, "load_template", counting)
        result = Pipeline(golden_corpus.config).run()
        assert result.provider_calls["total"] == 58
        assert sorted(loads) == ["argument", "format", "presence", "trigger"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{oops", "invalid JSON at line 1"),
            # Valid JSON whose messages break the bundle rule of every prompt.
            (None, "bundle must contain exactly one system message, first in order"),
        ],
        ids=["invalid-json", "no-system-message"],
    )
    @pytest.mark.parametrize("stage", ["presence", "trigger", "argument", "format"])
    def test_broken_template_of_a_computed_stage_fails_before_any_provider_call(
        self, golden_corpus, monkeypatch, stage, text, message
    ):
        templates = golden_corpus.root / "templates"
        write_templates(templates)
        if text is None:
            text = json.dumps({"stage": stage, "messages": [{"role": "user", "content": "{TEXT}"}]})
        (templates / f"{stage}.json").write_text(text, encoding="utf-8")
        config = dataclasses.replace(golden_corpus.config, templates=str(templates))
        calls = []
        complete = ScriptedMockLlm.complete
        monkeypatch.setattr(
            ScriptedMockLlm, "complete", lambda self, b: calls.append(b) or complete(self, b)
        )
        with pytest.raises(TemplateError, match=f"{stage}.json: {message}"):
            Pipeline(config).run()
        assert calls == []

    def test_broken_template_of_a_stage_that_does_not_run_is_not_parsed(self, golden_corpus):
        templates = golden_corpus.root / "templates"
        write_templates(templates)
        (templates / "format.json").write_text("{oops", encoding="utf-8")
        config = dataclasses.replace(golden_corpus.config, templates=str(templates))
        result = Pipeline(config).run(until="arguments")
        assert "format" not in result.provider_calls
        verdicts = golden_corpus.root / "llm_verdicts.jsonl"
        verdicts.write_text(
            "".join(json.dumps({"id": sid, "present": True}) + "\n" for sid in TRANSCRIPT_TEXTS)
        )
        (templates / "presence.json").write_text("{oops", encoding="utf-8")
        gate_only = dataclasses.replace(config, gate_llm_file=str(verdicts))
        assert Pipeline(gate_only).run(until="gate").provider_calls["total"] == 0

    def test_fully_resumed_run_with_a_broken_template_succeeds(self, golden_corpus, ontology):
        templates = golden_corpus.root / "templates"
        write_templates(templates)
        config = dataclasses.replace(golden_corpus.config, templates=str(templates))
        Pipeline(config).run()
        (templates / "trigger.json").write_text("{oops", encoding="utf-8")
        # Re-stamp the artifacts as built from these very files, as a run that
        # parsed a template only at its first prompt could have left them.
        inputs = Pipeline(config).inputs_digest()
        for name in ARTIFACTS:
            stage = name.removesuffix(".jsonl")
            path = golden_corpus.output_dir / name
            header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
            rows = read_artifact(path, stage, header["config_hash"], header["inputs"], ontology)
            write_artifact(path, stage, header["config_hash"], inputs, rows)
        result = Pipeline(config, resume=True).run()
        assert result.resumed_stages == ["gate", "triggers", "arguments", "final"]
        assert result.provider_calls["total"] == 0
        assert digests(golden_corpus.output_dir) == GOLDEN_DIGESTS


class TestTwoPhases:
    """Verdicts are fetched in batches before the gate, and queries embedded once after it."""

    def test_queries_are_embedded_in_one_call_after_the_gate(self, golden_corpus, ontology):
        pipeline = Pipeline(golden_corpus.config)
        pipeline.index  # noqa: B018 - embeds the support set first
        calls = []
        embed_batch = pipeline.embedder.embed_batch
        pipeline.embedder.embed_batch = lambda texts: calls.append(texts) or embed_batch(texts)
        result = pipeline.run()
        gate_rows = read_artifact(
            golden_corpus.output_dir / "gate.jsonl",
            "gate",
            result.config_hash,
            result.inputs,
            ontology,
        )
        gated_in = [row["id"] for row in gate_rows if row["gated_in"]]
        assert len(gated_in) == 10
        # Gated-out segments are not embedded; the argument stage reuses the
        # trigger stage's vector.
        assert calls == [[TRANSCRIPT_TEXTS[sid] for sid in gated_in]]
        assert result.texts_embedded == 12 + 10

    def test_argument_only_run_embeds_segments_with_triggers(self, tmp_path, ontology):
        corpus = build_golden_corpus(tmp_path / "steps", with_cache=False)
        Pipeline(corpus.config, resume=True).run(until="triggers")
        pipeline = Pipeline(corpus.config, resume=True)
        pipeline.index  # noqa: B018 - embeds the support set first
        calls = []
        embed_batch = pipeline.embedder.embed_batch
        pipeline.embedder.embed_batch = lambda texts: calls.append(texts) or embed_batch(texts)
        result = pipeline.run(until="arguments")
        assert result.resumed_stages == ["gate", "triggers"]
        trigger_rows = read_artifact(
            corpus.output_dir / "triggers.jsonl",
            "triggers",
            result.config_hash,
            result.inputs,
            ontology,
        )
        with_triggers = [row["id"] for row in trigger_rows if not row["failed"] and row["predictions"]]
        assert len(with_triggers) == 9
        assert calls == [[TRANSCRIPT_TEXTS[sid] for sid in with_triggers]]

    @pytest.mark.parametrize("group", [4, 32])
    def test_default_run_scans_the_matrix_once_per_query_group(
        self, golden_corpus, monkeypatch, group
    ):
        # With same_type_filter off, the trigger and argument stages share one
        # search over the 10 gated-in segments' queries: one float32 scan of
        # the whole matrix per group of queries, not two scans per segment.
        monkeypatch.setattr(retrieval, "_QUERY_GROUP", group)
        pipeline = Pipeline(golden_corpus.config)
        scans = _count_scans(monkeypatch, pipeline.index)
        pipeline.run()
        assert scans == [min(group, 10 - start) for start in range(0, 10, group)]
        assert digests(golden_corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.usefixtures("waiting_mock")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_argument_resume_with_the_filter_scans_once_and_matches_a_one_shot_run(
        self, tmp_path, monkeypatch, workers
    ):
        # With same_type_filter on, an argument stage computed from replayed
        # triggers runs one scan that keeps the per-type shortlists and copies
        # no masked rows, and its outputs are the bytes of a one-shot run. A
        # run that stops after triggers keeps no shortlists.
        one_shot = build_golden_corpus(tmp_path / "one-shot", with_cache=False)
        Pipeline(dataclasses.replace(one_shot.config, same_type_filter=True, workers=workers)).run()
        searches = []
        search = pipeline_module.search

        def recorded(*args, **kwargs):
            searches.append(kwargs["by_type"])
            return search(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "search", recorded)
        corpus = build_golden_corpus(tmp_path / "resume", with_cache=False)
        config = dataclasses.replace(corpus.config, same_type_filter=True, workers=workers)
        Pipeline(config, resume=True).run(until="triggers")
        assert searches == [False]
        searches.clear()
        pipeline = Pipeline(config, resume=True)
        index = pipeline.index
        vectors = index.vectors.view(_RowReads)
        vectors.reads = reads = []
        pipeline.index = SupportIndex(index.examples, vectors)
        scans = _count_scans(monkeypatch, pipeline.index)
        result = pipeline.run()
        assert result.resumed_stages == ["gate", "triggers"]
        assert searches == [True]
        assert scans == [9]
        # Row reads: the chunks of the scan and single rows rescored by np.dot.
        assert reads and all(isinstance(key, (int, slice)) for key in reads)
        resumed = digests(corpus.output_dir)
        assert digests(one_shot.output_dir) == resumed
        assert resumed == {**GOLDEN_DIGESTS, "arguments.jsonl": FILTERED_ARGUMENTS_DIGEST}

    @pytest.mark.parametrize("same_type_filter", [False, True])
    def test_zero_shot_run_embeds_and_searches_nothing(
        self, tmp_path, monkeypatch, ontology, same_type_filter
    ):
        # retrieval.k = 0 builds no index, so the query phase neither embeds
        # nor searches, and every trigger and argument prompt has no examples.
        corpus = build_golden_corpus(tmp_path / "zero", retrieval_k=0)
        config = dataclasses.replace(corpus.config, same_type_filter=same_type_filter)
        embedded, searched = [], []
        monkeypatch.setattr(
            HashedBagEmbedder, "embed_batch", lambda self, texts: embedded.append(texts)
        )
        monkeypatch.setattr(pipeline_module, "search", lambda *args, **kwargs: searched.append(args))
        pipeline = Pipeline(config)
        result = pipeline.run()
        assert pipeline.index is None
        assert embedded == [] and searched == []
        assert result.texts_embedded == 0
        rows = {
            name: read_artifact(
                corpus.output_dir / f"{name}.jsonl",
                name,
                result.config_hash,
                result.inputs,
                ontology,
            )
            for name in ("triggers", "arguments")
        }
        assert len(rows["triggers"]) == 10 and rows["arguments"]
        assert all(row["examples"] == [] for stage in rows.values() for row in stage)

    @pytest.mark.parametrize(
        "dimensions, message",
        [
            ((8, 8), r"query matrix of shape \(10, 8\) does not match index dimension 64"),
            ((64, 8), r"embedding dimension mismatch across texts: \[8, 64\]"),
        ],
        ids=["uniform", "mixed"],
    )
    def test_query_of_another_dimension_is_an_embedding_error(
        self, golden_corpus, dimensions, message
    ):
        pipeline = Pipeline(golden_corpus.config)
        pipeline.index  # noqa: B018 - embeds the support set first
        pipeline.embedder.embed_batch = lambda texts: [
            np.ones(dimensions[i % 2]) for i in range(len(texts))
        ]
        with pytest.raises(EmbeddingError, match=message):
            pipeline.run()

    @pytest.mark.usefixtures("waiting_mock")
    @pytest.mark.parametrize("same_type_filter", [False, True])
    def test_lazy_index_properties_are_built_before_the_extraction_pool(
        self, golden_corpus, monkeypatch, same_type_filter
    ):
        # type_rows is the index's one lazy property: the largest row square
        # comes from each scan, so only a by-type search builds anything.
        assert [
            name for name, value in vars(SupportIndex).items() if isinstance(value, cached_property)
        ] == ["type_rows"]
        built = []
        prop = SupportIndex.__dict__["type_rows"]

        def build(index, func=prop.func):
            built.append(threading.current_thread())
            return func(index)

        monkeypatch.setattr(prop, "func", build)
        config = dataclasses.replace(golden_corpus.config, same_type_filter=same_type_filter)
        Pipeline(config).run()
        assert built == ([threading.main_thread()] if same_type_filter else [])

    @pytest.mark.parametrize("batch_size", [1, 8, 64])
    def test_learned_verdicts_are_posted_in_batches(self, tmp_path, http_server, batch_size):
        corpus = build_golden_corpus(tmp_path / "remote")
        ids = sorted(TRANSCRIPT_TEXTS)
        p_of = {TRANSCRIPT_TEXTS[sid]: LEARNED_P[sid] for sid in ids}
        http_server.responder = lambda body: (
            200, {"probabilities": [p_of[text] for text in body["texts"]]}
        )
        learned = ProviderConfig(kind="remote", endpoint=http_server.url, batch_size=batch_size)
        config = dataclasses.replace(corpus.config, learned=learned)
        result = Pipeline(config).run(until="gate")
        assert len(http_server.requests) == -(-len(ids) // batch_size)
        texts = [TRANSCRIPT_TEXTS[sid] for sid in ids]
        expected = [texts[start : start + batch_size] for start in range(0, len(ids), batch_size)]
        assert sorted(r["body"]["texts"] for r in http_server.requests) == sorted(expected)
        assert result.gated_in == corpus.gated_in_all
        assert digests_of(corpus.output_dir / "gate.jsonl") == GOLDEN_DIGESTS["gate.jsonl"]


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


class TestStageRetryPolicy:
    def test_each_stage_retries_with_its_policy_in_stages(self, tmp_path, monkeypatch):
        # With retry.max_attempts 4 and retry.corrective on, the presence judge
        # still asks at most twice and formatting repair never corrects, while
        # each trigger and argument retry appends one correction to the
        # bundle, up to 4 attempts.
        requests: dict[tuple[str, str], list[int]] = {}
        complete = ScriptedMockLlm.complete

        def recorded_complete(provider, bundle):
            key = (bundle.segment_id, bundle.stage)
            requests.setdefault(key, []).append(len(bundle.messages))
            return complete(provider, bundle)

        monkeypatch.setattr(ScriptedMockLlm, "complete", recorded_complete)
        corpus = build_golden_corpus(tmp_path / "corpus", max_attempts=4, corrective=True)
        script = json.loads(corpus.script_path.read_text(encoding="utf-8"))
        # seg-028's judge would answer only on a third ask, and seg-005's
        # formatting repair never parses.
        script["seg-028/presence"] = ["hmm", "let me think", "YES"]
        script["seg-005/format"] = "still prose, no records"
        corpus.script_path.write_text(json.dumps(script), encoding="utf-8")
        config = dataclasses.replace(corpus.config, gate_lenient_llm=True)
        result = Pipeline(config).run()

        by_stage: dict[str, list[list[int]]] = {}
        for (_, stage), counts in requests.items():
            by_stage.setdefault(stage, []).append(counts)
        for stage in ("presence", "format"):  # retries resend the bundle as it was
            assert all(counts == counts[:1] * len(counts) for counts in by_stage[stage])
        assert max(map(len, by_stage["presence"])) == 2
        assert len(requests[("seg-028", "presence")]) == 2
        assert len(requests[("seg-005", "format")]) == 4
        for stage in ("trigger", "argument"):  # each retry appends one correction
            for counts in by_stage[stage]:
                assert counts == counts[:1] + [counts[0] + 1] * (len(counts) - 1)
                assert len(counts) <= 4
        assert len(requests[("seg-003", "trigger")]) == 2
        assert len(requests[("seg-010", "trigger")]) == 4
        assert len(requests[("seg-005", "argument")]) == 4
        calls = {stage: sum(map(len, runs)) for stage, runs in sorted(by_stage.items())}
        assert result.provider_calls == {**calls, "total": sum(calls.values())}


class TestSupportIndex:
    """A saved index is reused only with the embedding config and support set it was built from."""

    @staticmethod
    def _indexed(tmp_path):
        corpus = build_golden_corpus(tmp_path / "indexed", with_cache=False)
        return corpus, dataclasses.replace(corpus.config, index=str(tmp_path / "support.index"))

    @staticmethod
    def _assert_saved_index_is_fresh(config):
        examples = Pipeline(config).support_examples()
        fresh = build_index(examples, HashedBagEmbedder(config.embedding.dimension))
        saved = load_index(config.index, examples, embedding=config.embedding.to_dict())
        assert saved.example_ids == fresh.example_ids
        assert saved.vectors.tobytes() == fresh.vectors.tobytes()

    def test_current_index_is_loaded_without_embedding(self, tmp_path):
        _, config = self._indexed(tmp_path)
        built = Pipeline(config)
        assert len(built.index) == 12 and built._texts_embedded == 12
        loaded = Pipeline(config)
        assert np.array_equal(loaded.index.vectors, built.index.vectors)
        assert loaded._texts_embedded == 0
        # The run embeds only its 10 queries, shared by the trigger and argument stages.
        assert loaded.run().texts_embedded == 10

    def test_swapped_support_texts_make_the_run_rebuild(self, tmp_path):
        corpus, config = self._indexed(tmp_path)
        Pipeline(config).index  # noqa: B018 - builds and saves the index
        rows = [json.loads(line) for line in corpus.support_path.read_text().splitlines()]
        assert rows[0]["text"] != rows[1]["text"]
        rows[0]["text"], rows[1]["text"] = rows[1]["text"], rows[0]["text"]
        corpus.support_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        # 12 support texts, then 10 queries shared by the trigger and argument stages.
        assert Pipeline(config).run().texts_embedded == 22
        self._assert_saved_index_is_fresh(config)

    def test_changed_embedding_config_makes_the_run_rebuild(self, tmp_path):
        _, config = self._indexed(tmp_path)
        Pipeline(config).index  # noqa: B018 - builds and saves the index
        config = dataclasses.replace(config, embedding=ProviderConfig(kind="mock", dimension=32))
        assert Pipeline(config).run().texts_embedded == 22
        self._assert_saved_index_is_fresh(config)

    def test_stale_header_is_judged_without_reading_the_body(self, tmp_path):
        _, config = self._indexed(tmp_path)
        Pipeline(config).index  # noqa: B018 - builds and saves the index
        path = Path(config.index)
        header, body = path.read_bytes().split(b"\n", 1)
        stale = json.loads(header)
        stale["support_digest"] = "0" * 64
        path.write_bytes(json.dumps(stale).encode() + b"\n" + body[:100] + b"\xff" + body[100:])
        examples = Pipeline(config).support_examples()
        assert load_index(path, examples, embedding=config.embedding.to_dict()) is None
        rebuilt = Pipeline(config)
        assert len(rebuilt.index) == 12 and rebuilt._texts_embedded == 12
        self._assert_saved_index_is_fresh(config)

    def test_set_up_calls_the_functions_the_benchmark_times(self, golden_corpus, monkeypatch):
        # benchmarks/tracer.py times set-up by wrapping model.load_gold and
        # retrieval.build_index at every eventpipe module attribute holding
        # them; a set-up path around them would leave those timings empty.
        calls = {}
        for func in (model.load_gold, retrieval.build_index):
            def counted(*args, _func=func, **kwargs):
                calls[_func.__name__] += 1
                return _func(*args, **kwargs)

            calls[func.__name__] = 0
            for module in [m for name, m in sys.modules.items() if name.startswith("eventpipe")]:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, counted)
        pipeline = Pipeline(golden_corpus.config)
        pipeline.support  # noqa: B018 - parses the support set
        assert calls == {"load_gold": 1, "build_index": 0}
        pipeline.index  # noqa: B018 - embeds the support set
        assert calls == {"load_gold": 1, "build_index": 1}

    def test_pipelines_do_not_share_the_token_memo(self, golden_corpus):
        first, second = Pipeline(golden_corpus.config), Pipeline(golden_corpus.config)
        first.index  # noqa: B018 - embeds the support set
        assert first.embedder._codes
        assert second.embedder._codes == {}
