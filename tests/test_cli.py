"""Command-line interface: subcommands, rendered output, and exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventpipe
from conftest import build_golden_corpus
from eventpipe.cli import main
from eventpipe.llm import ScriptedMockLlm
from eventpipe.pipeline import STAGES, Pipeline
from eventpipe.retrieval import HashedBagEmbedder, build_index
from test_pipeline import GOLDEN_DIGESTS, digests
from test_retrieval import json_lines_index


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def damage_replayed_row(out_dir, stage, damage):
    """Damage seg-005's row of a stage's artifact in out_dir and delete the later artifacts.

    The resumed run then computes the later stages from the damaged row.
    Returns the artifact's path and the damaged row's line number.
    """
    names = [s.name for s in STAGES]
    for later in names[names.index(stage) + 1 :]:
        (out_dir / f"{later}.jsonl").unlink()
    path = out_dir / f"{stage}.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    (lineno,) = [n for n, line in enumerate(lines, 1) if '"id": "seg-005"' in line]
    row = json.loads(lines[lineno - 1])
    damage(row)
    lines[lineno - 1] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path, lineno


class TestRun:
    def test_full_run_reports_scores_and_paths(self, golden_corpus, capsys):
        code, out, err = run_cli(capsys, "run", "--config", str(golden_corpus.config_path))
        assert code == 0
        assert err == ""
        assert "F1=  90.9" in out
        assert "F1=  88.2" in out
        assert "gated_out: 20  extraction_failed: 1" in out
        assert f"predictions: {golden_corpus.output_dir / 'predictions.jsonl'}" in out
        assert f"report: {golden_corpus.output_dir / 'report.json'}" in out
        assert "provider calls: 58" in out
        assert "resumed stages" not in out

    def test_resumed_run_names_stages_and_spends_nothing(self, golden_corpus, capsys):
        run_cli(capsys, "run", "--config", str(golden_corpus.config_path))
        code, out, _ = run_cli(
            capsys, "run", "--config", str(golden_corpus.config_path), "--resume"
        )
        assert code == 0
        assert "provider calls: 0" in out
        assert "resumed stages: gate, triggers, arguments, final" in out


class TestSupportValidation:
    """Every support or gold row is checked when its file loads, retrieved or scored or not."""

    @pytest.mark.parametrize("form", ["lines", "array", "gold-lines", "gold-array"])
    @pytest.mark.parametrize(
        "event,message",
        [
            (
                {"trigger": "vote", "type": "NotAType"},
                "record 'unretrieved': unknown event type 'NotAType'",
            ),
            (
                {"trigger": "vote", "type": "Elect",
                 "arguments": [{"name": "x", "role": "Attacker"}]},
                "record 'unretrieved': role 'Attacker' is not permitted for event type 'Elect'",
            ),
            (
                {"trigger": "vote", "type": "Elect",
                 "arguments": [{"name": " ", "role": "Person"}]},
                "record 'unretrieved': argument name must be nonempty",
            ),
        ],
        ids=["unknown-type", "disallowed-role", "blank-argument-name"],
    )
    def test_bad_row_that_no_segment_retrieves_stops_the_run_before_any_provider_call(
        self, tmp_path, capsys, monkeypatch, form, event, message
    ):
        # The bad row goes into the support file, or into the gold file when
        # form names it; there, a row that no transcript has is never scored.
        corpus = build_golden_corpus(tmp_path / "corpus")
        file, _, form = form.rpartition("-")
        path = corpus.gold_path if file == "gold" else corpus.support_path
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        # A blank text is never indexed, so no segment can retrieve this row.
        line = len(rows) // 2 + 1
        rows.insert(line - 1, {"id": "unretrieved", "text": "", "event": [event]})
        if form == "lines":
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        else:
            path.write_text(json.dumps(rows, indent=1))
        calls = []
        complete = ScriptedMockLlm.complete
        monkeypatch.setattr(
            ScriptedMockLlm, "complete", lambda self, b: calls.append(b) or complete(self, b)
        )
        code, out, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert (code, out, err) == (3, "", f"error: {path}: line {line}: {message}\n")
        assert calls == []


class TestStageCommands:
    def test_gate(self, golden_corpus, capsys):
        code, out, _ = run_cli(capsys, "gate", "--config", str(golden_corpus.config_path))
        assert code == 0
        assert "gated in: 10  gated out: 20" in out
        assert f"artifacts: {golden_corpus.output_dir}" in out
        assert "trigger failures" not in out

    def test_extract_triggers(self, golden_corpus, capsys):
        code, out, _ = run_cli(
            capsys, "extract-triggers", "--config", str(golden_corpus.config_path)
        )
        assert code == 0
        assert "gated in: 10  gated out: 20" in out
        assert "trigger failures: 1" in out

    def test_extract_args(self, golden_corpus, capsys):
        code, out, _ = run_cli(
            capsys, "extract-args", "--config", str(golden_corpus.config_path)
        )
        assert code == 0
        assert (golden_corpus.output_dir / "arguments.jsonl").exists()
        assert not (golden_corpus.output_dir / "final.jsonl").exists()

    def test_format_runs_through_final(self, golden_corpus, capsys):
        code, out, _ = run_cli(capsys, "format", "--config", str(golden_corpus.config_path))
        assert code == 0
        assert "argument degraded: 0" in out
        assert "predictions:" in out
        assert (golden_corpus.output_dir / "predictions.jsonl").exists()
        # A resume that replays the final stage cannot count its repairs.
        code, out, _ = run_cli(
            capsys, "format", "--config", str(golden_corpus.config_path), "--resume"
        )
        assert code == 0
        assert "argument degraded: replayed" in out


class TestScore:
    def test_identity_scores_perfectly(self, golden_corpus, capsys):
        code, out, _ = run_cli(
            capsys,
            "score",
            "--predictions",
            str(golden_corpus.gold_path),
            "--gold",
            str(golden_corpus.gold_path),
        )
        assert code == 0
        assert out.count("F1= 100.0") == 2

    def test_scores_pipeline_predictions(self, golden_corpus, capsys):
        run_cli(capsys, "run", "--config", str(golden_corpus.config_path))
        out_json = golden_corpus.root / "rescored.json"
        code, out, _ = run_cli(
            capsys,
            "score",
            "--predictions",
            str(golden_corpus.output_dir / "predictions.jsonl"),
            "--gold",
            str(golden_corpus.gold_path),
            "--out",
            str(out_json),
        )
        assert code == 0
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert (payload["tc"]["tp"], payload["tc"]["n_pred"], payload["tc"]["n_gold"]) == (
            golden_corpus.tc_counts
        )
        # The standalone scorer has no gate context.
        assert payload["gated_out"] == 0

    def test_set_semantics_flag(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        ev = {"trigger": "war", "type": "Attack", "arguments": []}
        gold.write_text(json.dumps({"id": "s1", "event": [ev, ev]}) + "\n", encoding="utf-8")
        pred.write_text(json.dumps({"id": "s1", "event": [ev]}) + "\n", encoding="utf-8")
        code, multiset_out, _ = run_cli(
            capsys, "score", "--predictions", str(pred), "--gold", str(gold)
        )
        assert code == 0
        assert "R=  50.0" in multiset_out
        code, set_out, _ = run_cli(
            capsys, "score", "--predictions", str(pred), "--gold", str(gold), "--set-semantics"
        )
        assert code == 0
        assert "R= 100.0" in set_out


class TestAgreement:
    def test_renders_table_from_gate_artifact(self, golden_corpus, capsys):
        run_cli(capsys, "gate", "--config", str(golden_corpus.config_path))
        code, out, _ = run_cli(
            capsys, "agreement", str(golden_corpus.output_dir / "gate.jsonl")
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["rule", "learned", "llm=no", "llm=yes"]
        assert lines[-1] == "total segments: 30"
        cells = golden_corpus.agreement_cells
        # Row order is (rule, learned) = FF, FT, TF, TT; columns no/yes.
        expected_rows = [
            ("no", "no", cells[(False, False, False)], cells[(False, False, True)]),
            ("no", "yes", cells[(False, True, False)], cells[(False, True, True)]),
            ("yes", "no", cells[(True, False, False)], cells[(True, False, True)]),
            ("yes", "yes", cells[(True, True, False)], cells[(True, True, True)]),
        ]
        for line, expected in zip(lines[1:5], expected_rows):
            assert tuple(line.split()) == tuple(str(x) for x in expected)


class TestBuildIndex:
    def test_builds_and_saves(self, golden_corpus, capsys):
        out_path = golden_corpus.root / "support.index"
        code, out, _ = run_cli(
            capsys,
            "build-index",
            "--config",
            str(golden_corpus.config_path),
            "--out",
            str(out_path),
        )
        assert code == 0
        assert f"index: {out_path} (12 examples, dimension 64)" in out
        assert out_path.exists()

    def test_without_destination_is_a_config_error(self, golden_corpus, capsys):
        code, _, err = run_cli(capsys, "build-index", "--config", str(golden_corpus.config_path))
        assert code == 2
        assert "no index path" in err


class TestAblate:
    def test_renders_all_policies(self, golden_corpus, capsys):
        code, out, _ = run_cli(capsys, "ablate", "--config", str(golden_corpus.config_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["policy", "TC", "F1(%)", "AC", "F1(%)", "gated_in"]
        by_name = {line.split()[0]: line.split() for line in lines[1:8]}
        assert by_name["without"][1:] == ["78.6", "94.4", "30"]
        assert by_name["all"][1:] == ["90.9", "88.2", "10"]
        assert by_name["rule"][3] == "14"
        assert "gated-in nesting: all:10 <= two+:14 <= one+:18" in out
        report_path = golden_corpus.output_dir / "ablation" / "ablation.json"
        assert f"ablation report: {report_path}" in out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(payload["by_policy"]) == set(golden_corpus.policy_gated_in)
        assert payload["gated_in"] == golden_corpus.policy_gated_in

    def test_policy_subset(self, golden_corpus, capsys):
        code, out, _ = run_cli(
            capsys,
            "ablate",
            "--config",
            str(golden_corpus.config_path),
            "--policies",
            "without,all",
        )
        assert code == 0
        assert "rule" not in out.splitlines()[1]
        assert len([l for l in out.splitlines() if l and l.split()[0] in ("without", "all")]) == 2

    def test_gold_file_is_opened_once(self, golden_corpus, capsys, monkeypatch):
        # The ablation run parses the gold file, and the table scores against
        # that same parse.
        opened = []
        path_open = Path.open
        monkeypatch.setattr(
            Path, "open", lambda self, *a, **k: opened.append(self) or path_open(self, *a, **k)
        )
        code, _, _ = run_cli(capsys, "ablate", "--config", str(golden_corpus.config_path))
        assert code == 0
        assert opened.count(golden_corpus.gold_path) == 1

    def test_repeat_run_is_stable(self, golden_corpus, capsys):
        code, first, _ = run_cli(capsys, "ablate", "--config", str(golden_corpus.config_path))
        assert code == 0
        code, second, _ = run_cli(capsys, "ablate", "--config", str(golden_corpus.config_path))
        assert code == 0
        assert first == second

    def test_replayed_gate_row_with_a_non_boolean_verdict_is_an_input_error(
        self, golden_corpus, capsys
    ):
        # The table's verdicts are the ablation run's gate rows, so a replayed
        # row is checked as it is read.
        config = str(golden_corpus.config_path)
        assert run_cli(capsys, "ablate", "--config", config)[0] == 0
        path, lineno = damage_replayed_row(
            golden_corpus.output_dir / "ablation", "gate", lambda row: row.update(rule="yes")
        )
        code, _, err = run_cli(capsys, "ablate", "--config", config)
        message = "record 'seg-005': 'rule' must be true or false"
        assert (code, err) == (3, f"error: {path}: line {lineno}: {message}\n")


class TestFormatStandalone:
    def _config(self, tmp_path, script: dict) -> Path:
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        config = {
            "paths": {
                "gold": str(tmp_path / "gold.jsonl"),
                "transcripts": str(tmp_path / "transcripts.jsonl"),
                "support": str(tmp_path / "support.jsonl"),
                "output_dir": str(tmp_path / "out"),
            },
            "llm": {"default": {"kind": "mock", "script": str(script_path)}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return config_path

    def test_reformats_raw_records(self, tmp_path, capsys):
        config_path = self._config(tmp_path, {"fix-1/format": "still not json"})
        raw_file = tmp_path / "raws.jsonl"
        records = [
            {"id": "ok-1", "raw": 'noise [{"trigger": "war", "type": "Attack"}]'},
            {"id": "fix-1", "raw": "nothing recoverable here"},
        ]
        raw_file.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        out_path = tmp_path / "fixed.jsonl"
        code, out, _ = run_cli(
            capsys,
            "format",
            "--config",
            str(config_path),
            "--raw-file",
            str(raw_file),
            "--out",
            str(out_path),
        )
        assert code == 0
        assert f"formatted: {out_path} (1 segments, 1 excluded)" in out
        assert "excluded ids: fix-1" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert rows == [
            {
                "id": "ok-1",
                "event": [{"trigger": "war", "type": "Attack", "arguments": []}],
            }
        ]

    def test_a_record_id_that_is_not_a_string_is_read_as_a_string(self, tmp_path, capsys):
        # Every loader reads an id as str(id), so an excluded number id is
        # listed, and a formatted one is written, as a string.
        config_path = self._config(tmp_path, {"7/format": "still not json"})
        raw_file = tmp_path / "raws.jsonl"
        records = [
            {"id": 7, "raw": "no json here"},
            {"id": 8, "raw": '[{"trigger": "war", "type": "Attack"}]'},
        ]
        raw_file.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out_path = tmp_path / "fixed.jsonl"
        code, out, _ = run_cli(
            capsys, "format", "--config", str(config_path), "--raw-file", str(raw_file),
            "--out", str(out_path),
        )
        assert code == 0
        assert out == f"formatted: {out_path} (1 segments, 1 excluded)\nexcluded ids: 7\n"
        assert [json.loads(line)["id"] for line in out_path.read_text().splitlines()] == ["8"]

    def test_format_template_is_loaded_once_per_command(self, tmp_path, capsys, monkeypatch):
        import eventpipe.pipeline
        import eventpipe.prompts

        script = {f"fix-{i}/format": '[{"trigger": "war", "type": "Attack"}]' for i in range(3)}
        config_path = self._config(tmp_path, script)
        raw_file = tmp_path / "raws.jsonl"
        raw_file.write_text(
            "".join(json.dumps({"id": f"fix-{i}", "raw": "no json"}) + "\n" for i in range(3)),
            encoding="utf-8",
        )
        loads = []
        load_template = eventpipe.prompts.load_template
        for module in (eventpipe.pipeline, eventpipe.prompts):
            monkeypatch.setattr(
                module, "load_template", lambda *a, **k: loads.append(a) or load_template(*a, **k)
            )
        code, out, _ = run_cli(
            capsys, "format", "--config", str(config_path), "--raw-file", str(raw_file)
        )
        assert code == 0
        assert "(3 segments, 0 excluded)" in out
        assert loads == [("format", None)]

    def test_default_output_location(self, tmp_path, capsys):
        config_path = self._config(tmp_path, {})
        raw_file = tmp_path / "raws.jsonl"
        raw_file.write_text(
            json.dumps({"id": "ok-1", "raw": '[{"trigger": "met", "type": "Meet"}]'}) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "format", "--config", str(config_path), "--raw-file", str(raw_file))
        assert code == 0
        assert (tmp_path / "out" / "formatted.jsonl").exists()

    def test_record_without_raw_is_an_input_error(self, tmp_path, capsys):
        config_path = self._config(tmp_path, {})
        raw_file = tmp_path / "raws.jsonl"
        raw_file.write_text(json.dumps({"id": "ok-1"}) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "format", "--config", str(config_path), "--raw-file", str(raw_file)
        )
        assert code == 3
        assert "needs 'id' and 'raw'" in err

    def test_malformed_raw_line_is_an_input_error(self, tmp_path, capsys):
        config_path = self._config(tmp_path, {})
        raw_file = tmp_path / "raws.jsonl"
        raw_file.write_text(json.dumps({"id": "ok-1", "raw": "[]"}) + "\n{oops\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "format", "--config", str(config_path), "--raw-file", str(raw_file)
        )
        assert code == 3
        assert f"{raw_file}: invalid JSON at line 2" in err

    @pytest.mark.parametrize(
        "record",
        [{"id": "r2", "raw": "[]", "attempts": "x"}, {"id": "r2", "raw": "[]", "attempts": 0},
         {"id": "r2", "raw": "[]", "attempts": True}, {"id": "r2", "raw": "[]", "attempts": 2.0},
         {"id": "r2", "raw": 5}, {"id": "r2", "raw": None}],
        ids=repr,
    )
    def test_raw_record_with_a_bad_field_is_an_input_error(self, tmp_path, capsys, record):
        config_path = self._config(tmp_path, {})
        raw_file = tmp_path / "raws.jsonl"
        good = {"id": "r1", "raw": "[]", "attempts": 2}
        raw_file.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "format", "--config", str(config_path), "--raw-file", str(raw_file)
        )
        assert code == 3
        name = "attempts" if "attempts" in record else "raw"
        kind = {"raw": "a string", "attempts": "an integer >= 1"}[name]
        assert err == f"error: {raw_file}: line 2: record 'r2': {name!r} must be {kind}\n"


# Spellings near a policy name that are not one: aliases, another case, padding.
UNDOCUMENTED_POLICIES = ["none", "three", "at_least_1", "at-least-2", "ALL", " all "]


def _unknown_policy_error(name: str) -> str:
    return (
        f"error: unknown gate policy {name!r}; "
        "expected one of: without, rule, learned, llm, one+, two+, all\n"
    )


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "absent.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pipeline": {}}), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "unknown keys" in err

    def test_bad_policy_name(self, golden_corpus, capsys):
        code, _, err = run_cli(
            capsys,
            "ablate",
            "--config",
            str(golden_corpus.config_path),
            "--policies",
            "majority",
        )
        assert code == 2
        assert "majority" in err

    @pytest.mark.parametrize("name", UNDOCUMENTED_POLICIES, ids=repr)
    def test_undocumented_gate_policy_is_a_config_error(self, golden_corpus, capsys, name):
        config = json.loads(golden_corpus.config_path.read_text(encoding="utf-8"))
        config["gate"]["policy"] = name
        golden_corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(golden_corpus.config_path))
        assert (code, out, err) == (2, "", _unknown_policy_error(name))
        assert not golden_corpus.output_dir.exists()

    @pytest.mark.parametrize("name", UNDOCUMENTED_POLICIES, ids=repr)
    def test_undocumented_ablation_policy_is_a_config_error(self, golden_corpus, capsys, name):
        code, out, err = run_cli(
            capsys,
            "ablate",
            "--config",
            str(golden_corpus.config_path),
            "--policies",
            f"without,{name},all",
        )
        assert (code, out, err) == (2, "", _unknown_policy_error(name))
        assert not golden_corpus.output_dir.exists()

    def test_malformed_gold_is_an_input_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"no_id": true}\n', encoding="utf-8")
        code, _, err = run_cli(
            capsys, "score", "--predictions", str(gold), "--gold", str(gold)
        )
        assert code == 3
        assert "id" in err

    def test_torn_artifact_under_resume_is_an_input_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "gate", "--config", str(corpus.config_path))[0] == 0
        gate = corpus.output_dir / "gate.jsonl"
        lines = gate.read_text(encoding="utf-8").splitlines(keepends=True)
        gate.write_text("".join(lines[:3]) + lines[3][:10], encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path), "--resume")
        assert code == 3
        assert err == f"error: {gate}: invalid JSON at line 4\n"

    @pytest.mark.parametrize(
        "stage, field",
        [("gate", "gated_in"), ("triggers", "failed"), ("arguments", "raw"), ("final", "event")],
    )
    def test_replayed_row_without_a_field_is_an_input_error(self, tmp_path, capsys, stage, field):
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "run", "--config", str(corpus.config_path))[0] == 0
        path, lineno = damage_replayed_row(corpus.output_dir, stage, lambda row: row.pop(field))
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path), "--resume")
        names = " and ".join(repr(name) for s in STAGES if s.name == stage for name in s.fields)
        message = f"{path}: line {lineno}: record 'seg-005' needs {names}"
        assert (code, err) == (3, f"error: {message}\n")

    @pytest.mark.parametrize(
        "stage, key, value, message",
        [
            (
                "triggers",
                "predictions",
                [{"trigger": " ", "type": "Die"}],
                "event is missing a trigger string",
            ),
            ("triggers", "predictions", ["died"], "event entry must be an object"),
            ("arguments", "events", {"trigger": "died"}, "'events' must be a list"),
            (
                "arguments",
                "events",
                [{"trigger": "died", "type": "Die", "arguments": [{"name": "worker"}]}],
                "each argument needs 'name' and 'role'",
            ),
            ("final", "event", [{"trigger": "died"}], "event is missing a type string"),
            ("arguments", "raw", None, "'raw' must be a string"),
            ("gate", "gated_in", "no", "'gated_in' must be true or false"),
            ("gate", "llm", "maybe", "'llm' must be true or false"),
            ("triggers", "failed", "no", "'failed' must be true or false"),
            ("triggers", "attempts", "three", "'attempts' must be an integer >= 1"),
            ("triggers", "examples", 7, "'examples' must be a list of strings"),
            ("arguments", "failed", 0, "'failed' must be true or false"),
        ],
    )
    def test_replayed_row_with_a_malformed_field_is_an_input_error(
        self, tmp_path, capsys, stage, key, value, message
    ):
        # format --resume stops after the final stage, as the replayed
        # arguments rows are repaired.
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "run", "--config", str(corpus.config_path))[0] == 0
        path, lineno = damage_replayed_row(corpus.output_dir, stage, lambda row: row.update({key: value}))
        code, _, err = run_cli(capsys, "format", "--config", str(corpus.config_path), "--resume")
        assert (code, err) == (3, f"error: {path}: line {lineno}: record 'seg-005': {message}\n")

    NOT_A_ROLE = [{"name": "x", "role": "NotARole"}]

    @pytest.mark.parametrize(
        "stage, key, event, message",
        [
            (
                "triggers",
                "predictions",
                {"trigger": "died", "type": "Bogus"},
                "unknown event type 'Bogus'",
            ),
            (
                "arguments",
                "events",
                {"trigger": "died", "type": "Bogus", "arguments": []},
                "unknown event type 'Bogus'",
            ),
            (
                "arguments",
                "events",
                {"trigger": "died", "type": "Die", "arguments": NOT_A_ROLE},
                "role 'NotARole' is not permitted for event type 'Die'",
            ),
            (
                "final",
                "event",
                {"trigger": "died", "type": "Bogus", "arguments": NOT_A_ROLE},
                "unknown event type 'Bogus'",
            ),
            (
                "final",
                "event",
                {"trigger": "died", "type": "Die", "arguments": NOT_A_ROLE},
                "role 'NotARole' is not permitted for event type 'Die'",
            ),
        ],
    )
    def test_replayed_event_outside_the_ontology_is_an_input_error(
        self, tmp_path, capsys, stage, key, event, message
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "run", "--config", str(corpus.config_path))[0] == 0
        path, lineno = damage_replayed_row(corpus.output_dir, stage, lambda row: row[key].append(event))
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path), "--resume")
        assert (code, err) == (3, f"error: {path}: line {lineno}: record 'seg-005': {message}\n")

    @staticmethod
    def _rewrite_line(path, lineno, change):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[lineno - 1])
        change(record)
        lines[lineno - 1] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")

    def test_rows_the_resumed_run_overwrites_are_not_checked(self, tmp_path, capsys):
        # The gate is recomputed, so every later stage is too: final.jsonl's
        # rows are overwritten, and a defect in them is no error.
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "run", "--config", str(corpus.config_path))[0] == 0
        (corpus.output_dir / "gate.jsonl").unlink()
        self._rewrite_line(
            corpus.output_dir / "final.jsonl", 2, lambda row: row.update(event="nope")
        )
        code, out, err = run_cli(capsys, "run", "--config", str(corpus.config_path), "--resume")
        assert (code, err) == (0, "")
        assert "resumed stages" not in out
        assert digests(corpus.output_dir) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("stage", ["triggers", "arguments", "final"])
    def test_foreign_config_hash_behind_a_recomputed_stage_aborts(self, tmp_path, capsys, stage):
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "run", "--config", str(corpus.config_path))[0] == 0
        (corpus.output_dir / "gate.jsonl").unlink()
        path = corpus.output_dir / f"{stage}.jsonl"
        self._rewrite_line(path, 1, lambda header: header.update(config_hash="foreign"))
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path), "--resume")
        assert code == 2
        assert err.startswith(f"error: {path}: artifact config hash 'foreign' does not match")

    def test_artifact_header_that_is_not_an_object_is_an_input_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        assert run_cli(capsys, "gate", "--config", str(corpus.config_path))[0] == 0
        gate = corpus.output_dir / "gate.jsonl"
        lines = gate.read_text(encoding="utf-8").splitlines(keepends=True)
        gate.write_text("5\n" + "".join(lines[1:]), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path), "--resume")
        assert code == 3
        assert err == f"error: {gate}: header at line 1 is not an object\n"

    @staticmethod
    def _set_path(corpus, key, value):
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["paths"][key] = str(value)
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")

    def test_empty_index_file_is_an_input_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        index = tmp_path / "index.jsonl"
        index.write_text("", encoding="utf-8")
        self._set_path(corpus, "index", index)
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 3
        assert err == f"error: {index}: empty index file\n"

    @pytest.mark.parametrize("form", ["lines", "array"])
    def test_json_index_of_the_older_format_is_kept_and_an_input_error(
        self, tmp_path, capsys, form
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        examples = Pipeline(corpus.config).support_examples()
        index = build_index(examples, HashedBagEmbedder(corpus.config.embedding.dimension))
        old = json_lines_index(index, corpus.config.embedding.to_dict())
        if form == "array":
            old = json.dumps([json.loads(line) for line in old.splitlines()]).encode()
        path = tmp_path / "support.index"
        path.write_bytes(old)
        self._set_path(corpus, "index", path)
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 3
        assert err.startswith(f"error: {path}: ") and "`eventpipe build-index`" in err
        assert path.read_bytes() == old

    @pytest.mark.parametrize("key", ["index", "transcripts"])
    def test_input_path_that_is_a_directory_is_an_input_error(self, tmp_path, capsys, key):
        corpus = build_golden_corpus(tmp_path / "corpus")
        directory = tmp_path / "a-directory"
        directory.mkdir()
        self._set_path(corpus, key, directory)
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 3
        assert err.startswith("error: ") and str(directory) in err
        assert list(directory.iterdir()) == []

    def test_mock_script_miss_is_a_provider_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        corpus.script_path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 4
        assert "no scripted response" in err

    def test_missing_learned_verdict_is_a_verification_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        lines = corpus.learned_path.read_text(encoding="utf-8").splitlines()
        corpus.learned_path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "gate", "--config", str(corpus.config_path))
        assert code == 5

    @pytest.mark.parametrize("name", ["transcripts", "gold", "learned verdicts"])
    def test_invalid_utf8_in_a_row_file_is_an_input_error(self, tmp_path, capsys, name):
        corpus = build_golden_corpus(tmp_path / "corpus")
        path = {
            "transcripts": corpus.transcripts_path,
            "gold": corpus.gold_path,
            "learned verdicts": corpus.learned_path,
        }[name]
        lineno = len(path.read_bytes().splitlines()) + 1
        with path.open("ab") as fh:
            fh.write(b'{"id": "seg-999", "text": "caf\xff"}\n')
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 3
        assert err == f"error: {path}: invalid UTF-8 at line {lineno}\n"

    def test_invalid_utf8_in_the_config_file_is_a_config_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        with corpus.config_path.open("ab") as fh:
            fh.write(b"\xff")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 2
        assert err == f"error: {corpus.config_path}: invalid UTF-8\n"

    @pytest.mark.parametrize(
        "line", [b'{"key": "a", "response": "\xff"}', b'{"key": "a", "response": 5}']
    )
    def test_malformed_cache_line_is_a_provider_error(self, golden_corpus, capsys, line):
        golden_corpus.cache_path.write_bytes(line + b"\n")
        code, _, err = run_cli(capsys, "run", "--config", str(golden_corpus.config_path))
        assert code == 4
        assert err == f"error: {golden_corpus.cache_path}:1: malformed cache entry\n"

    def test_invalid_utf8_in_the_ontology_file_is_an_input_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        ontology = tmp_path / "ontology.json"
        ontology.write_bytes(b'{"Die": ["Victim"], "caf\xff": []}')
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["paths"]["ontology"] = str(ontology)
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 3
        assert err == f"error: ontology file {ontology}: invalid UTF-8\n"

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"seg-001/presence": "caf\xff"}', "invalid UTF-8"),
            (b'{"seg-001/presence": ', "invalid JSON at line 1"),
            (b'["YES"]', "must be a JSON object"),
            (b'{"seg-001/presence": 5}', "entry 'seg-001/presence' must be a string"),
            (b'{"seg-001/presence": [1]}', "entry 'seg-001/presence' must be a string"),
            (b'{"seg-001/presence": []}', "entry 'seg-001/presence' must be a string"),
            (b'{"seg-001/presence": {"YES": 1}}', "entry 'seg-001/presence' must be a string"),
        ],
        ids=["utf-8", "json", "not-an-object", "int-entry", "int-in-list", "empty-list", "object"],
    )
    def test_bad_mock_script_is_an_input_error(self, tmp_path, capsys, content, message):
        corpus = build_golden_corpus(tmp_path / "corpus")
        corpus.script_path.write_bytes(content)
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 3
        assert err.startswith(f"error: mock script {corpus.script_path}")
        assert message in err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"stage": "presence", "messages": [{"role": "system", "content": "caf\xff"}]}',
             "invalid UTF-8"),
            (b'{"stage": "presence",\n "messages": [', "invalid JSON at line 2"),
            (b"[1]", "must be a JSON object"),
            (b'{"stage": "presence", "messages": [1]}',
             "message 1 needs string 'role' and 'content'"),
            (b'{"stage": "presence", "messages": [{"role": "system", "content": "x"}, {"role": 1}]}',
             "message 2 needs string 'role' and 'content'"),
            (b'{"stage": "presence", "messages": [{"role": "system", "content": ["x"]}]}',
             "message 1 needs string 'role' and 'content'"),
            (b'{"stage": "presence", "messages": [{"role": "robot", "content": "x"}]}',
             "message 1: unsupported message role 'robot'"),
            (b'{"stage": "trigger", "messages": [{"role": "system", "content": "x"}]}',
             "declares stage 'trigger', not 'presence'"),
        ],
        ids=["utf-8", "json", "not-an-object", "message-not-an-object", "role-not-a-string",
             "content-not-a-string", "unknown-role", "wrong-stage"],
    )
    def test_bad_template_override_is_a_config_error(self, tmp_path, capsys, content, message):
        corpus = build_golden_corpus(tmp_path / "corpus")
        templates = tmp_path / "templates"
        templates.mkdir()
        for stage in ("trigger", "argument", "format"):
            (templates / f"{stage}.json").write_text(
                json.dumps({"stage": stage, "messages": [{"role": "system", "content": stage}]}),
                encoding="utf-8",
            )
        path = templates / "presence.json"
        path.write_bytes(content)
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["paths"]["templates"] = str(templates)
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 2
        assert err.startswith(f"error: template file {path}: ")
        assert message in err

    def test_broken_format_template_fails_before_any_provider_call(
        self, tmp_path, capsys, monkeypatch
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        templates = tmp_path / "templates"
        templates.mkdir()
        for stage in ("presence", "trigger", "argument", "format"):
            source = Path(eventpipe.__file__).parent / "templates" / f"{stage}.json"
            (templates / f"{stage}.json").write_bytes(source.read_bytes())
        path = templates / "format.json"
        path.write_text("{oops", encoding="utf-8")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["paths"]["templates"] = str(templates)
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        calls = []
        complete = ScriptedMockLlm.complete
        monkeypatch.setattr(
            ScriptedMockLlm, "complete", lambda self, b: calls.append(b) or complete(self, b)
        )
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 2
        assert err == f"error: template file {path}: invalid JSON at line 1\n"
        assert calls == []

    @pytest.mark.parametrize(
        "section,key,value",
        [("concurrency", "workers", "four"), ("concurrency", "workers", None),
         ("retrieval", "k", 2.7), ("retry", "max_attempts", True), ("gate", "threshold", "0.5")]
        + [
            (section, key, value)
            for section, key in (("gate", "lenient_llm"), ("retrieval", "same_type_filter"),
                                 ("retry", "corrective"), ("scoring", "set_semantics"))
            for value in ("false", 0, None)
        ]
        + [("paths", "cache", 5), ("gate", "policy", 5)],
        ids=repr,
    )
    def test_bad_pipeline_setting_is_a_config_error(self, tmp_path, capsys, section, key, value):
        corpus = build_golden_corpus(tmp_path / "corpus")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config[section][key] = value
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 2
        assert err.startswith(f"error: config.{section}.{key} must be ")
        assert repr(value) in err

    @pytest.mark.parametrize(
        "name,value", [("batch_size", 0), ("max_retries", 0), ("max_in_flight", 0)]
    )
    def test_bad_remote_provider_setting_is_a_config_error(
        self, tmp_path, capsys, http_server, name, value
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["gate"]["learned"] = {"kind": "remote", "endpoint": http_server.url, name: value}
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "gate", "--config", str(corpus.config_path))
        assert code == 2
        assert err == (
            f"error: config.gate.learned: provider {name} must be an integer >= 1, got {value}\n"
        )
        assert http_server.requests == []

    @pytest.mark.parametrize(
        "name,value",
        [("dimension", "384"), ("dimension", 0), ("dimension", True), ("sampling", "x"),
         ("api_key_env", 5), ("script", 5), ("path", 5)],
        ids=repr,
    )
    def test_provider_field_of_the_wrong_type_is_a_config_error(
        self, tmp_path, capsys, name, value
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["retrieval"]["embedding"][name] = value
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 2
        assert err.startswith(f"error: config.retrieval.embedding: provider {name} must be ")
        assert repr(value) in err

    def test_sampling_that_sets_the_messages_is_a_config_error(self, tmp_path, capsys):
        corpus = build_golden_corpus(tmp_path / "corpus")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["llm"]["presence"] = {
            "kind": "remote", "endpoint": "http://127.0.0.1:9/chat", "model": "m",
            "sampling": {"messages": []},
        }
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(corpus.config_path))
        assert code == 2
        assert err == (
            "error: config.llm.presence: provider sampling must not set 'messages': "
            "the request sets it\n"
        )

    @pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
    def test_learned_verdict_that_is_not_a_boolean_is_an_input_error(
        self, tmp_path, capsys, value
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        lines = corpus.learned_path.read_text(encoding="utf-8").splitlines()
        rid = json.loads(lines[0])["id"]
        lines[0] = json.dumps({"id": rid, "present": value})
        corpus.learned_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "gate", "--config", str(corpus.config_path))
        assert code == 3
        assert err == (
            f"error: {corpus.learned_path}: line 1: record {rid!r}: 'present' must be true or false\n"
        )

    @pytest.mark.parametrize("name,value", [("rule", "no"), ("learned", 0), ("llm", None)])
    def test_verdict_triple_that_is_not_a_boolean_is_an_input_error(
        self, tmp_path, capsys, name, value
    ):
        path = tmp_path / "verdicts.jsonl"
        rows = [{"id": "s1", "rule": True, "learned": False, "llm": True},
                {"id": "s2", "rule": False, "learned": True, "llm": False, name: value}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        code, out, err = run_cli(capsys, "agreement", str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: line 2: record 's2': {name!r} must be true or false\n"

    def test_verdict_triple_that_looks_like_a_header_is_an_input_error(self, tmp_path, capsys):
        # Only a first record can be an artifact header; a later one is a
        # malformed triple, not one to skip.
        path = tmp_path / "verdicts.jsonl"
        rows = [{"id": "s1", "rule": True, "learned": False, "llm": True},
                {"id": "s2", "rule": False, "learned": True, "llm": False},
                {"stage": "oops", "rule": True, "learned": True, "llm": True}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        code, out, err = run_cli(capsys, "agreement", str(path))
        assert (code, out) == (3, "")
        assert err == (
            f"error: {path}: line 3: record needs 'id' and 'rule' and 'learned' and 'llm'\n"
        )

    @pytest.mark.parametrize(
        "endpoint", ["localhost:8000/v1/verdicts", "file:///verdicts.json", "data:,{}"]
    )
    def test_remote_endpoint_that_is_not_http_is_a_config_error(self, tmp_path, capsys, endpoint):
        corpus = build_golden_corpus(tmp_path / "corpus")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["gate"]["learned"] = {"kind": "remote", "endpoint": endpoint}
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "gate", "--config", str(corpus.config_path))
        assert code == 2
        assert err == (
            "error: config.gate.learned: provider endpoint must be an http or https URL,"
            f" got {endpoint!r}\n"
        )

    @pytest.mark.parametrize("value", [1.7, "0.4", None], ids=repr)
    def test_remote_verdict_that_is_not_a_probability_is_a_verification_error(
        self, tmp_path, capsys, http_server, value
    ):
        corpus = build_golden_corpus(tmp_path / "corpus")
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        config["gate"]["learned"] = {"kind": "remote", "endpoint": http_server.url}
        corpus.config_path.write_text(json.dumps(config), encoding="utf-8")
        http_server.default_response = (200, {"probabilities": [0.5] * 3 + [value] * 27})
        code, _, err = run_cli(capsys, "gate", "--config", str(corpus.config_path))
        assert code == 5
        assert f"returned {value!r} for segment 'seg-004'" in err

    def test_prediction_id_outside_gold_is_a_verification_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(json.dumps({"id": "s1", "event": []}) + "\n", encoding="utf-8")
        pred.write_text(json.dumps({"id": "s2", "event": []}) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "score", "--predictions", str(pred), "--gold", str(gold))
        assert code == 5
        assert "s2" in err


class TestEntryPoint:
    def test_module_help_via_console_entry(self):
        # The child imports the same eventpipe as this process, installed or not.
        package_root = str(Path(eventpipe.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "from eventpipe.cli import main; raise SystemExit(main(['--help']))"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "Structured event extraction" in proc.stdout
        for command in ("run", "score", "ablate", "agreement", "build-index", "format"):
            assert command in proc.stdout
