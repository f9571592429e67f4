"""Data model, normalization, and corpus loaders."""
from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventpipe.model import (
    Argument,
    DatasetError,
    EventMention,
    Ontology,
    Segment,
    ValidationError,
    load_gold,
    load_ontology,
    load_transcripts,
    normalize,
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

