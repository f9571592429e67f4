"""Data model, normalization, and corpus loaders."""
from __future__ import annotations

import argparse
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventpipe.cli import cmd_format
from eventpipe.gate import FileVerdictProvider, load_verdict_triples
from eventpipe.model import (
    Argument,
    DatasetError,
    EventMention,
    Ontology,
    Segment,
    ValidationError,
    iter_json_records,
    load_gold,
    load_ontology,
    load_transcripts,
    normalize,
)
from eventpipe.pipeline import read_artifact
from eventpipe.retrieval import FewShotExample, load_index


# Every whitespace character, and characters whose lowercasing depends on
# their neighbours (final sigma) or changes their length (dotted capital I).
_WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_tricky_texts = st.text(
    alphabet=st.sampled_from(_WHITESPACE + ["Σ", "σ", "A", "b", "İ", "\u0301", "'", "."])
    | st.characters(),
    max_size=40,
)


class TestNormalize:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize("  The  Election\tof   May ") == "the election of may"

    def test_empty_and_whitespace_only(self):
        assert normalize("") == ""
        assert normalize(" \t\n ") == ""

    def test_preserves_interior_punctuation(self):
        assert normalize("Arrest-Jail!") == "arrest-jail!"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)

    @given(st.text(max_size=80))
    def test_output_has_no_edge_or_double_spaces(self, text):
        out = normalize(text)
        assert out == out.strip()
        assert "  " not in out

    def test_alphabet_holds_every_whitespace_character(self):
        assert not any(chr(c).isspace() for c in range(0x3001, 0x110000))

    @given(_tricky_texts)
    def test_strip_empties_exactly_what_normalize_empties(self, text):
        assert bool(normalize(text)) == bool(text.strip())

    @given(_tricky_texts)
    def test_tokens_are_those_of_the_lowercased_text(self, text):
        assert normalize(text).split() == text.lower().split()


class TestOntology:
    def test_default_ontology_shape(self, ontology):
        assert len(ontology.event_types) == 33
        assert len({r for roles in ontology.roles_by_type.values() for r in roles}) == 22
        # Types are unique and every type has at least one role.
        assert len(set(ontology.event_types)) == 33
        for event_type in ontology.event_types:
            assert ontology.roles_for(event_type)

    def test_role_lookup(self, ontology):
        assert "Person" in ontology.role_set_for("Elect")
        assert "Attacker" in ontology.role_set_for("Attack")
        assert "Attacker" not in ontology.role_set_for("Elect")

    def test_unknown_type_has_no_roles(self, ontology):
        assert ontology.roles_for("NotAType") == ()
        assert ontology.role_set_for("NotAType") == frozenset()
        assert "NotAType" not in ontology.type_set

    def test_load_rejects_empty_object(self, tmp_path):
        path = tmp_path / "ont.json"
        path.write_text("{}")
        with pytest.raises(DatasetError):
            load_ontology(path)

    def test_load_rejects_non_list_roles(self, tmp_path):
        path = tmp_path / "ont.json"
        path.write_text(json.dumps({"Elect": "Person"}))
        with pytest.raises(DatasetError):
            load_ontology(path)

    def test_construction_rejects_roles_for_unknown_type(self):
        with pytest.raises(ValidationError):
            Ontology(event_types=("Elect",), roles_by_type={"Attack": ("Place",)})


class TestEventValidation:
    def test_valid_event_passes(self, ontology):
        ev = EventMention(
            trigger="election",
            event_type="Elect",
            arguments=(Argument(name="man", role="Person"),),
        )
        ev.validate(ontology, "seg-x")

    def test_unknown_type_rejected(self, ontology):
        ev = EventMention(trigger="x", event_type="Elected", arguments=())
        with pytest.raises(ValidationError, match="Elected"):
            ev.validate(ontology, "seg-x")

    def test_role_not_permitted_for_type_rejected(self, ontology):
        ev = EventMention(
            trigger="election",
            event_type="Elect",
            arguments=(Argument(name="village", role="Attacker"),),
        )
        with pytest.raises(ValidationError, match="Attacker"):
            ev.validate(ontology, "seg-x")

    def test_blank_argument_name_rejected(self):
        with pytest.raises(ValidationError):
            Argument(name="", role="Person")

    def test_blank_argument_role_rejected(self):
        with pytest.raises(ValidationError):
            Argument(name="man", role="  ")

    def test_empty_segment_id_rejected(self):
        with pytest.raises(ValidationError):
            Segment(id="", text="hello")

    def test_gold_loader_rejects_blank_trigger(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            json.dumps({"id": "a", "event": [{"trigger": " ", "type": "Elect"}]}) + "\n"
        )
        with pytest.raises(DatasetError, match="trigger"):
            load_gold(path, ontology)


class TestLoaders:
    def _write(self, path, rows):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def test_load_gold_roundtrip(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        self._write(
            path,
            [
                {
                    "id": "a",
                    "text": "the election",
                    "event": [
                        {
                            "trigger": "election",
                            "type": "Elect",
                            "arguments": [{"name": "man", "role": "Person"}],
                        }
                    ],
                },
                {"id": "b", "event": []},
            ],
        )
        labeled = load_gold(path, ontology)
        assert [ls.segment.id for ls in labeled] == ["a", "b"]
        assert labeled[0].gold_events[0].event_type == "Elect"
        assert labeled[0].gold_events[0].arguments[0].role == "Person"
        assert labeled[1].gold_events == ()

    def test_load_gold_accepts_json_array_file(self, tmp_path, ontology):
        path = tmp_path / "gold.json"
        path.write_text(json.dumps([{"id": "a", "event": []}]))
        assert len(load_gold(path, ontology)) == 1

    def test_load_gold_duplicate_id(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        self._write(path, [{"id": "a", "event": []}, {"id": "a", "event": []}])
        with pytest.raises(DatasetError, match="a"):
            load_gold(path, ontology)

    def test_load_gold_invalid_event_names_record(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        self._write(
            path,
            [{"id": "bad-seg", "event": [{"trigger": "x", "type": "NotAType"}]}],
        )
        with pytest.raises((DatasetError, ValidationError), match="bad-seg"):
            load_gold(path, ontology)

    def test_load_gold_malformed_json_reports_line(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"id": "a", "event": []}\n{oops\n')
        with pytest.raises(DatasetError, match="2"):
            load_gold(path, ontology)

    def test_load_transcripts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [{"id": "a", "text": "hello"}, {"id": "b", "text": ""}])
        segments = load_transcripts(path)
        assert [(s.id, s.text) for s in segments] == [("a", "hello"), ("b", "")]

    def test_load_transcripts_requires_text(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [{"id": "a"}])
        with pytest.raises(DatasetError):
            load_transcripts(path)

    def test_load_transcripts_duplicate_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
        with pytest.raises(DatasetError, match="a"):
            load_transcripts(path)

    def test_missing_file(self, tmp_path, ontology):
        with pytest.raises((DatasetError, FileNotFoundError, OSError)):
            load_gold(tmp_path / "nope.jsonl", ontology)



def _format_raw_file(path):
    """Run `format --raw-file` on path; return the formatted rows' text."""
    script = path.with_name("script.json")
    script.write_text("{}", encoding="utf-8")
    config = path.with_name("config.json")
    out = path.with_name("formatted.jsonl")
    files = {name: str(path.with_name(f"{name}.jsonl")) for name in ("gold", "transcripts", "support")}
    config.write_text(
        json.dumps(
            {
                "paths": {**files, "output_dir": str(path.with_name("out"))},
                "llm": {"default": {"kind": "mock", "script": str(script)}},
            }
        ),
        encoding="utf-8",
    )
    cmd_format(argparse.Namespace(config=str(config), raw_file=str(path), out=str(out)))
    return out.read_text(encoding="utf-8")


# Every row-file loader: a valid row list (header first where the format has
# one) and a call that loads the file at a path and returns something nonempty.
ROW_LOADERS = {
    "gold": ([{"id": "a", "event": []}], lambda p: load_gold(p, load_ontology())),
    "transcripts": ([{"id": "a", "text": "x"}], load_transcripts),
    "learned verdicts": (
        [{"id": "a", "p": 0.5}],
        lambda p: FileVerdictProvider(p).presence_probabilities([Segment(id="a", text="")]),
    ),
    "verdict triples": (
        [{"id": "a", "rule": True, "learned": False, "llm": True}],
        load_verdict_triples,
    ),
    "raw replies": (
        [{"id": "a", "raw": '[{"trigger": "war", "type": "Attack"}]'}],
        _format_raw_file,
    ),
    "stage artifact": (
        [{"stage": "gate", "config_hash": "h", "inputs": "i"}, {"id": "a", "gated_in": True}],
        lambda p: read_artifact(p, "gate", "h", "i"),
    ),
    "index": (
        [{"count": 1, "dimension": 2}, {"id": "a", "vector": [0.6, 0.8]}],
        lambda p: load_index(p, [FewShotExample(example_id="a", text="x")]).example_ids,
    ),
}


class TestRowCodec:
    @pytest.mark.parametrize("kind", sorted(ROW_LOADERS))
    def test_loader_reads_arrays_and_names_malformed_lines(self, tmp_path, kind):
        rows, load = ROW_LOADERS[kind]
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        assert load(path)
        path.write_text(json.dumps(rows[0]) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DatasetError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}: invalid JSON at line 2"

    @pytest.mark.parametrize(
        "content",
        [
            b'{"id": "a"}\n\n{"id": "b"}\r\n',
            b'[{"id": "a"},\r\n {"id": "b"}]',
            b'[{"id": "a"},\r {"id": "b"},\r oops]',
            b'[\n{"id": "a"}\n,]',
            b'{"id": "a"}\n{oops\n',
            b'{"id": "a"}\n{"id": "\xff"}\n',
            b'[{"id": "\xff"}]',
            b"",
        ],
        ids=["lines", "array", "array-cr", "array-bad", "lines-bad", "lines-utf-8", "array-utf-8",
             "empty"],
    )
    def test_content_already_read_parses_as_the_file_does(self, tmp_path, content):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(content)

        def outcome(data):
            try:
                return list(iter_json_records(path, data))
            except DatasetError as exc:
                return str(exc)

        expected = outcome(None)
        path.unlink()  # content given is never read from the path
        assert outcome(io.BytesIO(content)) == expected
