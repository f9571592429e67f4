"""Data model, normalization, and corpus loaders."""
from __future__ import annotations

import argparse
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventpipe.cli import cmd_format
from eventpipe.gate import FileVerdictProvider, load_verdict_triples
from eventpipe.model import (
    FIELD_TYPES,
    DatasetError,
    LabeledSegment,
    Ontology,
    Segment,
    _decode_line,
    check_event,
    check_rows,
    iter_json_records,
    load_gold,
    load_ontology,
    load_transcripts,
    normalize,
)
from eventpipe.pipeline import STAGES, read_artifact
from eventpipe.prompts import render_examples


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
        with pytest.raises(DatasetError):
            Ontology(event_types=("Elect",), roles_by_type={"Attack": ("Place",)})


class TestEventValidation:
    def test_valid_event_passes(self, ontology):
        ev = {
            "arguments": [{"role": "Person", "name": "man"}],
            "type": "Elect",
            "trigger": "election",
        }
        checked = check_event(ev, "seg-x", ontology)
        assert checked == {
            "trigger": "election",
            "type": "Elect",
            "arguments": [{"name": "man", "role": "Person"}],
        }
        assert list(checked) == ["trigger", "type", "arguments"]
        assert list(checked["arguments"][0]) == ["name", "role"]

    def test_absent_arguments_are_an_empty_list(self, ontology):
        ev = {"trigger": "x", "type": "Elect"}
        assert check_event(ev, "seg-x", ontology) == {**ev, "arguments": []}

    def test_argument_name_is_loaded_as_a_string(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        ev = {"trigger": "x", "type": "Elect", "arguments": [{"name": 5, "role": "Person"}]}
        path.write_text(json.dumps({"id": "a", "event": [ev]}) + "\n", encoding="utf-8")
        (labeled,) = load_gold(path, ontology)
        assert labeled.gold_events[0]["arguments"] == [{"name": "5", "role": "Person"}]

    def test_unknown_type_rejected(self, ontology):
        ev = {"trigger": "x", "type": "Elected", "arguments": []}
        with pytest.raises(DatasetError, match="record 'seg-x': unknown event type 'Elected'"):
            check_event(ev, "seg-x", ontology)

    def test_role_not_permitted_for_type_rejected(self, ontology):
        ev = {
            "trigger": "election",
            "type": "Elect",
            "arguments": [{"name": "village", "role": "Attacker"}],
        }
        with pytest.raises(
            DatasetError,
            match="record 'seg-x': role 'Attacker' is not permitted for event type 'Elect'",
        ):
            check_event(ev, "seg-x", ontology)

    def test_blank_argument_name_rejected(self, ontology):
        ev = {"trigger": "x", "type": "Elect", "arguments": [{"name": "", "role": "Person"}]}
        with pytest.raises(DatasetError, match="record 'seg-x': argument name must be nonempty"):
            check_event(ev, "seg-x", ontology)

    def test_blank_argument_role_rejected(self, ontology):
        ev = {"trigger": "x", "type": "Elect", "arguments": [{"name": "man", "role": "  "}]}
        with pytest.raises(DatasetError, match="record 'seg-x': argument role must be nonempty"):
            check_event(ev, "seg-x", ontology)

    def test_shape_is_checked_before_the_ontology(self, ontology):
        # A malformed argument is reported before the unknown type.
        ev = {"trigger": "x", "type": "Bogus", "arguments": [{"name": "man"}]}
        with pytest.raises(DatasetError, match="each argument needs 'name' and 'role'"):
            check_event(ev, "seg-x", ontology)

    def test_empty_segment_id_rejected(self):
        with pytest.raises(DatasetError):
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
        assert [ls.id for ls in labeled] == ["a", "b"]
        (event,) = labeled[0].gold_events
        assert event == {
            "trigger": "election",
            "type": "Elect",
            "arguments": [{"name": "man", "role": "Person"}],
        }
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
        with pytest.raises(DatasetError, match="bad-seg"):
            load_gold(path, ontology)

    def test_load_gold_rejects_an_empty_id(self, tmp_path, ontology):
        path = tmp_path / "gold.jsonl"
        self._write(path, [{"id": "a", "event": []}, {"id": "", "event": []}])
        with pytest.raises(DatasetError) as raised:
            load_gold(path, ontology)
        assert str(raised.value) == f"{path}: line 2: segment id must be nonempty"

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"id": "b", "event": {}}, "record 'b': 'event' must be a list"),
            ({"id": "b", "text": 5}, "record 'b': 'text' must be a string"),
            (
                {"id": "b", "event": [{"trigger": "x", "type": "NotAType"}]},
                "record 'b': unknown event type 'NotAType'",
            ),
            (
                {"id": "b", "event": [{"trigger": "x", "type": "NotAType"}], "text": 5},
                "record 'b': 'text' must be a string",
            ),
        ],
        ids=["event", "text", "type", "text-before-type"],
    )
    def test_a_bad_gold_row_names_the_file_and_the_line(self, tmp_path, ontology, record, message):
        path = tmp_path / "gold.jsonl"
        self._write(path, [{"id": "a", "event": []}, record])
        with pytest.raises(DatasetError) as raised:
            load_gold(path, ontology)
        assert str(raised.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"id": "", "text": "x"}, "segment id must be nonempty"),
            ({"id": "b", "text": 5}, "record 'b': 'text' must be a string"),
        ],
        ids=["empty-id", "text"],
    )
    def test_a_bad_transcript_row_names_the_file_and_the_line(self, tmp_path, record, message):
        path = tmp_path / "t.jsonl"
        self._write(path, [{"id": "a", "text": "x"}, record])
        with pytest.raises(DatasetError) as raised:
            load_transcripts(path)
        assert str(raised.value) == f"{path}: line 2: {message}"

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

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["ls", "ps", "nel"])
    def test_unicode_line_separator_in_a_string_does_not_split_a_record(self, tmp_path, separator):
        # Valid JSON, and json.dumps(..., ensure_ascii=False) writes it raw:
        # only a newline byte ends a JSON-lines record.
        path = tmp_path / "t.jsonl"
        rows = [{"id": "a", "text": f"x{separator}y"}, {"id": "b", "text": "z"}]
        text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)
        path.write_text(text, encoding="utf-8")
        segments = load_transcripts(path)
        assert [(s.id, s.text) for s in segments] == [("a", f"x{separator}y"), ("b", "z")]
        path.write_text(text + "{oops\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="invalid JSON at line 3$"):
            load_transcripts(path)

    def test_missing_file(self, tmp_path, ontology):
        with pytest.raises((DatasetError, FileNotFoundError, OSError)):
            load_gold(tmp_path / "nope.jsonl", ontology)



def _support_record(rng, ontology, i):
    """A valid support record in a varied shape: keys in any order, extra keys,
    an absent argument list or text, integer names and non-ASCII strings."""
    words = ["war", "Élection", "met", "shot  down", "x\u2028y", "42", "ﬁre", "Σίσυφος"]
    events = []
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        etype = rng.choice(ontology.event_types)
        event = {"trigger": rng.choice(words), "type": etype, "note": i}
        if rng.random() < 0.9:
            event["arguments"] = [
                dict(rng.sample([("name", rng.choice(words + [7])), ("role", role)], 2))
                for role in rng.choices(ontology.roles_for(etype), k=rng.randint(0, 3))
            ]
        events.append(dict(rng.sample(list(event.items()), len(event))))
    record = {"id": f"sup-{i:05d}", "event": events}
    if rng.random() < 0.95:
        record["text"] = " ".join(rng.choices(words, k=6))
    return dict(rng.sample(list(record.items()), len(record)))


class TestLabeledRows:
    """A loaded row rebuilds the LabeledSegment of check_event's dicts, byte for byte."""

    @staticmethod
    def _assert_rebuilt(rows, records, ontology):
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            rid = record["id"]
            events = tuple(check_event(ev, rid, ontology) for ev in record["event"])
            assert events == tuple(
                {
                    "trigger": ev["trigger"],
                    "type": ev["type"],
                    "arguments": [
                        {"name": str(a["name"]), "role": a["role"]} for a in ev.get("arguments", [])
                    ],
                }
                for ev in record["event"]
            )
            want = LabeledSegment(rid, record.get("text", ""), events)
            assert row == want
            assert json.dumps(row.gold_events) == json.dumps(want.gold_events)  # key order
            for event in row.gold_events:
                assert list(event) == ["trigger", "type", "arguments"]
                assert all(list(arg) == ["name", "role"] for arg in event["arguments"])
            for with_arguments in (True, False):
                got = render_examples([row], with_arguments=with_arguments)
                assert got == render_examples([want], with_arguments=with_arguments)

    def test_golden_support_rows_rebuild_as_checked(self, golden_corpus, ontology):
        lines = golden_corpus.support_path.read_text(encoding="utf-8").splitlines()
        rows = load_gold(golden_corpus.support_path, ontology)
        self._assert_rebuilt(rows, [json.loads(line) for line in lines], ontology)

    @pytest.mark.parametrize("form", ["lines", "array"])
    def test_generated_support_rows_rebuild_as_checked(self, tmp_path, ontology, form):
        rng = random.Random(2000)
        records = [_support_record(rng, ontology, i) for i in range(2000)]
        path = tmp_path / "support.jsonl"
        if form == "lines":
            text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        else:
            text = json.dumps(records, ensure_ascii=False)
        path.write_text(text, encoding="utf-8")
        rows = load_gold(path, ontology)
        assert rows.ids == tuple(r["id"] for r in records)
        assert rows.texts == tuple(r.get("text", "") for r in records)
        self._assert_rebuilt(rows, records, ontology)

    def test_take_and_slices_keep_the_rows_they_name(self, golden_corpus, ontology):
        rows = load_gold(golden_corpus.support_path, ontology)
        taken = rows.take([3, 0, 3])
        assert list(taken) == [rows[3], rows[0], rows[3]]
        assert list(rows[1::4]) == [rows[i] for i in range(1, len(rows), 4)]
        assert rows[-1] == rows[len(rows) - 1]



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
        [
            {"stage": "gate", "config_hash": "h", "inputs": "i"},
            {"id": "a", "rule": True, "learned": True, "llm": True, "gated_in": True},
        ],
        lambda p: read_artifact(p, "gate", "h", "i", load_ontology()),
    ),
}

# For each row loader: a field its rows hold, a value of the wrong kind, and
# the kind the message names.
BAD_FIELDS = {
    "gold": ("event", {}, "a list"),
    "transcripts": ("text", 5, "a string"),
    "learned verdicts": ("p", "0.5", "a number in [0, 1]"),
    "verdict triples": ("llm", "yes", "true or false"),
    "raw replies": ("attempts", 0, "an integer >= 1"),
    "stage artifact": ("gated_in", None, "true or false"),
}


# JSON whitespace, whitespace that JSON does not skip, a BOM, garbage, and
# bare tokens that are JSON only to Python's decoder (NaN, Infinity).
_LINE_PIECES = [
    "", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u3000",
    "\ufeff", "x", "}", "]", ",", "0", '"', "{", "NaN", "Infinity", "-Infinity", "nan", "null",
    "tru", "1e400", "-0", "01", '"\\ud800"', '"\\u00e9"',
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_line_bodies = (
    st.builds(json.dumps, _json_values)
    | st.builds(lambda v: json.dumps(v, indent=1), _json_values)
    | st.lists(st.sampled_from(_LINE_PIECES), max_size=4).map("".join)
    | st.text(max_size=6)
)
_lines = st.tuples(
    st.lists(st.sampled_from(_LINE_PIECES), max_size=3).map("".join),
    _line_bodies,
    st.lists(st.sampled_from(_LINE_PIECES), max_size=3).map("".join),
).map("".join)


def _decoded(decode, line):
    """repr of decode(line), which tells NaN, -0.0 and 1.0 from 1 apart; or the error's type."""
    try:
        return repr(decode(line))
    except ValueError as exc:
        return type(exc).__name__


class TestDecodeLine:
    @settings(max_examples=1000, deadline=None)
    @given(line=_lines)
    def test_accepts_and_decodes_exactly_what_json_loads_does(self, line):
        assert _decoded(_decode_line, line) == _decoded(json.loads, line)

    @pytest.mark.parametrize(
        "line",
        ["", " ", "\n", "\ufeff{}", "{} x", "{}\x0b", "\xa0{}", "[1] [2]", " \t{}\r\n", "NaN\n"],
    )
    def test_edge_lines_match_json_loads(self, line):
        assert _decoded(_decode_line, line) == _decoded(json.loads, line)

    def test_extra_data_is_reported_where_json_loads_reports_it(self):
        with pytest.raises(json.JSONDecodeError) as got:
            _decode_line('{"a": 1}  \t x\n')
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads('{"a": 1}  \t x\n')
        assert (got.value.msg, got.value.pos) == (want.value.msg, want.value.pos)


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
        "value,fault",
        [(b"[" * 100_000, "nested too deep"), (b"1" * 5000, "integer too long")],
        ids=["nested-too-deep", "integer-too-long"],
    )
    @pytest.mark.parametrize("kind", sorted(ROW_LOADERS))
    def test_a_value_json_cannot_build_is_invalid_json(self, tmp_path, kind, value, fault):
        # json raises RecursionError for the first and int's digit-limit
        # ValueError for the second: a line names its number, an array the fault.
        rows, load = ROW_LOADERS[kind]
        path = tmp_path / "rows.json"
        path.write_bytes(json.dumps(rows[0]).encode() + b"\n" + value + b"\n")
        with pytest.raises(DatasetError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}: invalid JSON at line 2"
        path.write_bytes(b"[" + json.dumps(rows[0]).encode() + b", " + value + b"]")
        with pytest.raises(DatasetError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}: invalid JSON ({fault})"

    @pytest.mark.parametrize("kind", sorted(ROW_LOADERS))
    def test_every_loader_names_a_bad_field_in_one_form(self, tmp_path, kind):
        # Each fault of a row is reported as "<path>: line <n>: ...": a bad
        # field, a row without an id, which names every field its loader
        # needs, and a repeated id.
        rows, load = ROW_LOADERS[kind]
        name, value, expected = BAD_FIELDS[kind]
        last = rows[-1]
        no_id = {k: v for k, v in last.items() if k != "id"}
        faults = [  # the rows, and a pattern of the message after its prefix
            (
                [*rows[:-1], {**last, name: value}],
                re.escape(f"record 'a': {name!r} must be {expected}"),
            ),
            ([*rows[:-1], no_id], "record needs 'id'( and '\\w+')*"),
            ([*rows, last], "duplicate id 'a'"),
        ]
        path = tmp_path / "rows.jsonl"
        for faulty, message in faults:
            path.write_text("".join(json.dumps(row) + "\n" for row in faulty), encoding="utf-8")
            with pytest.raises(DatasetError) as excinfo:
                load(path)
            prefix = re.escape(f"{path}: line {len(faulty)}: ")
            assert re.fullmatch(prefix + message, str(excinfo.value))

    def test_every_artifact_field_has_a_kind(self):
        fields = {name for stage in STAGES for name in stage.fields} - {"id"}
        assert fields <= FIELD_TYPES.keys()

    def test_a_field_without_a_kind_is_refused_before_any_record(self, tmp_path):
        with pytest.raises(KeyError):
            list(check_rows(tmp_path / "rows.jsonl", [], optional=("colour",)))

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
