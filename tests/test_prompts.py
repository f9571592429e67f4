"""Prompt templates, placeholder substitution, and bundle invariants."""
from __future__ import annotations

import json
import re

import pytest

from eventpipe.model import LabeledSegment, Segment
from eventpipe.prompts import (
    NO_EXAMPLES_SENTENCE,
    PromptBundle,
    PromptMessage,
    STAGES,
    TemplateError,
    build_argument_prompt,
    build_format_prompt,
    build_presence_prompt,
    build_trigger_prompt,
    load_template,
    render_examples,
)


def _segment(text="the war began", sid="s1"):
    return Segment(id=sid, text=text)


def _example(example_id="ex-1", text="jets were shot down", with_args=True):
    args = [{"name": "jets", "role": "Target"}] if with_args else []
    ev = {"trigger": "shot down", "type": "Attack", "arguments": args}
    return LabeledSegment(id=example_id, text=text, gold_events=(ev,))


class TestMessageAndBundle:
    def test_message_role_restricted(self):
        PromptMessage("system", "x")
        PromptMessage("user", "y")
        with pytest.raises((TemplateError, ValueError)):
            PromptMessage("assistant", "z")

    def test_bundle_requires_single_leading_system_message(self):
        msgs = (PromptMessage("system", "a"), PromptMessage("user", "b"))
        PromptBundle(msgs, "trigger", "s1")
        with pytest.raises((TemplateError, ValueError)):
            PromptBundle((PromptMessage("user", "b"),), "trigger", "s1")
        with pytest.raises((TemplateError, ValueError)):
            PromptBundle(
                (PromptMessage("system", "a"), PromptMessage("system", "b")), "trigger", "s1"
            )

    def test_bundle_stage_restricted(self):
        msgs = (PromptMessage("system", "a"),)
        with pytest.raises((TemplateError, ValueError)):
            PromptBundle(msgs, "translation", "s1")


class TestLoadTemplate:
    @pytest.mark.parametrize("stage", STAGES)
    def test_packaged_templates_load(self, stage):
        messages = load_template(stage)
        assert messages[0].role == "system"
        assert all(m.role in ("system", "user") for m in messages)

    def test_unknown_stage_rejected(self):
        with pytest.raises(TemplateError):
            load_template("summarize")

    def test_directory_override(self, tmp_path):
        data = {
            "stage": "presence",
            "messages": [
                {"role": "system", "content": "custom judge"},
                {"role": "user", "content": "TEXT: {TEXT}"},
            ],
        }
        (tmp_path / "presence.json").write_text(json.dumps(data))
        messages = load_template("presence", tmp_path)
        assert messages[0].content == "custom judge"

    def test_message_content_nonempty(self, tmp_path):
        data = {
            "stage": "presence",
            "messages": [{"role": "system", "content": "judge"}, {"role": "user", "content": ""}],
        }
        path = tmp_path / "presence.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TemplateError) as info:
            load_template("presence", tmp_path)
        assert str(info.value) == f"template file {path}: message 2: message content must be nonempty"

    def test_a_bare_placeholder_may_fill_in_empty(self, tmp_path, ontology):
        data = {
            "stage": "presence",
            "messages": [{"role": "system", "content": "judge"}, {"role": "user", "content": "{TEXT}"}],
        }
        (tmp_path / "presence.json").write_text(json.dumps(data))
        template = load_template("presence", tmp_path)
        bundle = build_presence_prompt(_segment(""), ontology, template=template)
        assert bundle.messages[1].content == ""

    def test_override_with_wrong_declared_stage_rejected(self, tmp_path):
        data = {"stage": "trigger", "messages": [{"role": "system", "content": "x"}]}
        (tmp_path / "presence.json").write_text(json.dumps(data))
        with pytest.raises(TemplateError):
            load_template("presence", tmp_path)


class TestRenderExamples:
    def test_records_are_one_compact_json_per_line(self):
        text = render_examples([_example("a"), _example("b")], with_arguments=True)
        lines = text.splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["text"] == "jets were shot down"
        assert rec["event"][0]["trigger"] == "shot down"
        assert rec["event"][0]["arguments"] == [{"name": "jets", "role": "Target"}]

    def test_without_arguments_omits_argument_key(self):
        text = render_examples([_example()], with_arguments=False)
        rec = json.loads(text)
        assert "arguments" not in rec["event"][0]
        assert rec["event"][0] == {"trigger": "shot down", "type": "Attack"}

    def test_rank_order_preserved(self):
        text = render_examples(
            [_example("z-last"), _example("a-first")], with_arguments=False
        )
        # Rendering must not re-sort by id: retrieval rank is meaningful.
        assert text.splitlines()[0] == render_examples([_example("z-last")], with_arguments=False)

    def test_no_examples_renders_placeholder_sentence(self):
        assert render_examples([], with_arguments=True) == NO_EXAMPLES_SENTENCE


class TestTriggerPrompt:
    def test_system_message_text(self, ontology, templates):
        bundle = build_trigger_prompt(_segment(), [], ontology, template=templates["trigger"])
        assert bundle.messages[0].content == (
            "Your job is to extract trigger words signaling events in a text,"
            " and classify its event type."
        )

    def test_type_inventory_lists_all_33_in_order(self, ontology, templates):
        bundle = build_trigger_prompt(_segment(), [], ontology, template=templates["trigger"])
        task = bundle.messages[1].content
        start = task.index("[") + 1
        end = task.index("]")
        listed = [t.strip() for t in task[start:end].split(",")]
        assert listed == list(ontology.event_types)
        assert len(listed) == 33

    def test_text_and_examples_substituted(self, ontology, templates):
        bundle = build_trigger_prompt(
            _segment("hello world"), [_example()], ontology, template=templates["trigger"]
        )
        contents = [m.content for m in bundle.messages]
        assert "TEXT: hello world" in contents
        assert any(c.startswith("EXAMPLES: ") and "shot down" in c for c in contents)

    def test_no_examples_sentence_used_for_empty_retrieval(self, ontology, templates):
        bundle = build_trigger_prompt(_segment(), [], ontology, template=templates["trigger"])
        assert any(NO_EXAMPLES_SENTENCE in m.content for m in bundle.messages)

    def test_mentions_no_event_possibility(self, ontology, templates):
        bundle = build_trigger_prompt(_segment(), [], ontology, template=templates["trigger"])
        assert any(
            "It is possible there are no events in the text." in m.content
            for m in bundle.messages
        )

    def test_bundle_identity(self, ontology, templates):
        bundle = build_trigger_prompt(
            _segment(sid="seg-9"), [], ontology, template=templates["trigger"]
        )
        assert bundle.stage == "trigger"
        assert bundle.segment_id == "seg-9"

    def test_pure_and_byte_stable(self, ontology, templates):
        a = build_trigger_prompt(_segment(), [_example()], ontology, template=templates["trigger"])
        b = build_trigger_prompt(_segment(), [_example()], ontology, template=templates["trigger"])
        assert a == b

    def test_substitution_is_single_pass(self, ontology, templates):
        # A transcript that itself contains placeholder syntax must pass
        # through literally, not get re-substituted.
        bundle = build_trigger_prompt(
            _segment("mind the {EXAMPLES} token"), [], ontology, template=templates["trigger"]
        )
        assert "TEXT: mind the {EXAMPLES} token" in [m.content for m in bundle.messages]


class TestArgumentPrompt:
    def test_system_message_text(self, ontology, templates):
        bundle = build_argument_prompt(
            _segment(), ["Attack"], [], ontology, template=templates["argument"]
        )
        assert bundle.messages[0].content == (
            "Your job is to extract arguments for events in a text,"
            " and classify their role in that event."
        )

    def test_schema_projected_to_predicted_types_only(self, ontology, templates):
        bundle = build_argument_prompt(
            _segment(), ["Elect"], [], ontology, template=templates["argument"]
        )
        task = next(m.content for m in bundle.messages if "{" in m.content or "schema" in m.content)
        start = task.index("{")
        schema = json.loads(task[start : task.rindex("}") + 1])
        assert schema == {"Elect": list(ontology.roles_for("Elect"))}

    def test_duplicate_types_collapse_to_first_occurrence(self, ontology, templates):
        bundle = build_argument_prompt(
            _segment(), ["Attack", "Elect", "Attack"], [], ontology, template=templates["argument"]
        )
        text_msg = next(m.content for m in bundle.messages if m.content.startswith("TEXT: "))
        assert "EVENT TYPE(s): Attack, Elect" in text_msg

    def test_unknown_predicted_type_rejected(self, ontology, templates):
        with pytest.raises(TemplateError, match="Meetx"):
            build_argument_prompt(
                _segment(), ["Meetx"], [], ontology, template=templates["argument"]
            )

    def test_empty_types_rejected(self, ontology, templates):
        with pytest.raises(TemplateError):
            build_argument_prompt(_segment(), [], [], ontology, template=templates["argument"])

    def test_examples_include_arguments(self, ontology, templates):
        bundle = build_argument_prompt(
            _segment(), ["Attack"], [_example()], ontology, template=templates["argument"]
        )
        examples_msg = next(
            m.content for m in bundle.messages if m.content.startswith("EXAMPLES: ")
        )
        assert '"role": "Target"' in examples_msg


class TestFormatPrompt:
    def test_system_message_text(self, templates):
        bundle = build_format_prompt("...junk... [1, 2]", template=templates["format"])
        assert bundle.messages[0].content == (
            "Your job is to extract a JSON-like output from the end of a string."
            " Only return the JSON."
        )

    def test_example_block_braces_survive_substitution(self, templates):
        bundle = build_format_prompt("raw model reply", template=templates["format"])
        example_msg = bundle.messages[-1].content
        assert example_msg.startswith("EXAMPLE:")
        payload = json.loads(example_msg[len("EXAMPLE:") :])
        assert payload[0]["trigger"] == "deploy"
        assert payload[0]["type"] == "Transport"
        assert payload[0]["arguments"] == [
            {"name": "soldiers", "role": "Artifact"},
            {"name": "region", "role": "Destination"},
        ]

    def test_raw_output_lands_in_text_slot(self, templates):
        bundle = build_format_prompt("PROSE {TEXT} MORE", template=templates["format"])
        assert "TEXT: PROSE {TEXT} MORE" in [m.content for m in bundle.messages]

    def test_empty_raw_rejected(self, templates):
        with pytest.raises(TemplateError):
            build_format_prompt("", template=templates["format"])

    def test_stage_and_segment(self, templates):
        bundle = build_format_prompt("x", "seg-5", template=templates["format"])
        assert bundle.stage == "format"
        assert bundle.segment_id == "seg-5"


class TestPresencePrompt:
    def test_yes_no_instruction_and_types(self, ontology, templates):
        bundle = build_presence_prompt(_segment(), ontology, template=templates["presence"])
        assert "YES or NO" in bundle.messages[0].content
        assert any("Elect" in m.content for m in bundle.messages[1:])

    def test_text_substituted(self, ontology, templates):
        bundle = build_presence_prompt(
            _segment("did anything happen"), ontology, template=templates["presence"]
        )
        assert "TEXT: did anything happen" in [m.content for m in bundle.messages]


class TestUnknownPlaceholder:
    def test_template_with_undeclared_placeholder_rejected(self, tmp_path, ontology):
        data = {
            "stage": "presence",
            "messages": [
                {"role": "system", "content": "judge"},
                {"role": "user", "content": "TEXT: {TEXT} SCHEMA: {SCHEMA}"},
            ],
        }
        path = tmp_path / "presence.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TemplateError, match="SCHEMA") as info:
            load_template("presence", tmp_path)
        assert str(info.value).startswith(f"template file {path}: message 2: ")
        # A template built by hand meets the same check when it is filled in.
        template = tuple(PromptMessage(**m) for m in data["messages"])
        with pytest.raises(TemplateError, match="SCHEMA"):
            build_presence_prompt(_segment(), ontology, template=template)

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_stage_accepts_the_placeholders_its_packaged_template_uses(self, tmp_path, stage):
        packaged = {name for m in load_template(stage) for name in re.findall(r"\{([A-Z_]+)\}", m.content)}
        for name in ("TEXT", "EVENT_TYPES", "SCHEMA", "EXAMPLES"):
            content = f"judge {{{name}}}"
            data = {"stage": stage, "messages": [{"role": "system", "content": content}]}
            (tmp_path / f"{stage}.json").write_text(json.dumps(data))
            if name in packaged:
                assert load_template(stage, tmp_path)[0].content == content
            else:
                with pytest.raises(TemplateError, match=f"{{{name}}} has no value for stage"):
                    load_template(stage, tmp_path)

    def test_lowercase_braces_are_not_placeholders(self, tmp_path, ontology):
        data = {
            "stage": "presence",
            "messages": [
                {"role": "system", "content": "judge"},
                {"role": "user", "content": "TEXT: {TEXT} literal {not_a_slot}"},
            ],
        }
        (tmp_path / "presence.json").write_text(json.dumps(data))
        template = load_template("presence", tmp_path)
        bundle = build_presence_prompt(_segment("x"), ontology, template=template)
        assert "literal {not_a_slot}" in bundle.messages[1].content
