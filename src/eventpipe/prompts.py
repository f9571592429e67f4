"""Chat prompt assembly from versioned template files.

Templates are JSON message lists with {TEXT}-style placeholders. Substitution
is a single regex pass, never str.format: the formatting template embeds a
literal JSON example whose braces must survive untouched, and substituted
values must never be re-scanned for placeholders.

Placeholder grammar: {NAME} where NAME is uppercase ASCII letters and
underscores. Recognized names: TEXT (the transcript), EVENT_TYPES
(comma-separated event type names), SCHEMA (JSON {type: [roles]} projection),
EXAMPLES (rendered few-shot examples). Any other name in a template is an
error, as is a recognized name with no value for the stage.

A run parses each stage's template once, with load_template, and each stage's
builder fills in the template it is given.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from importlib import resources

from .model import Lines, Ontology, Segment, parse_json
from .retrieval import FewShotExample

__all__ = [
    "PromptBundle",
    "PromptMessage",
    "Template",
    "TemplateError",
    "build_argument_prompt",
    "build_format_prompt",
    "build_presence_prompt",
    "build_trigger_prompt",
    "load_template",
    "render_examples",
]

STAGES = ("presence", "trigger", "argument", "format")
# The placeholders each stage fills in.
STAGE_PLACEHOLDERS = {
    "presence": {"TEXT", "EVENT_TYPES"},
    "trigger": {"TEXT", "EVENT_TYPES", "EXAMPLES"},
    "argument": {"TEXT", "EVENT_TYPES", "SCHEMA", "EXAMPLES"},
    "format": {"TEXT"},
}
NO_EXAMPLES_SENTENCE = "No examples are available for this query."

_PLACEHOLDER = re.compile(r"\{([A-Z_]+)\}")


class TemplateError(ValueError):
    """A template file or placeholder substitution is invalid."""


@dataclass(frozen=True)
class PromptMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user"):
            raise TemplateError(f"unsupported message role {self.role!r}")
        if not self.content:
            raise TemplateError("message content must be nonempty")


# A stage's parsed message template, as load_template returns it.
Template = tuple[PromptMessage, ...]


@dataclass(frozen=True)
class PromptBundle:
    """An ordered chat request plus the routing metadata mock providers key on."""

    messages: tuple[PromptMessage, ...]
    stage: str
    segment_id: str

    def __post_init__(self):
        if self.stage not in STAGES:
            raise TemplateError(f"unknown stage {self.stage!r}")
        if not self.messages:
            raise TemplateError("bundle must contain at least one message")
        system_count = sum(1 for m in self.messages if m.role == "system")
        if system_count != 1 or self.messages[0].role != "system":
            raise TemplateError(
                "bundle must contain exactly one system message, first in order"
            )


def load_template(
    stage: str, templates_dir: str | Path | None = None, *, data: Lines | None = None
) -> Template:
    """Load a stage's message template, from a directory override or package data.

    Every defect of the file, from its encoding to a placeholder the stage has
    no value for, is a TemplateError naming the file.
    """
    if stage not in STAGES:
        raise TemplateError(f"unknown stage {stage!r}")
    if templates_dir is not None:
        source = Path(templates_dir) / f"{stage}.json"
    else:
        source = resources.files("eventpipe").joinpath(f"templates/{stage}.json")
    where = f"template file {source}"
    doc = parse_json(
        source.read_bytes() if data is None else b"".join(data), where, TemplateError
    )
    if not isinstance(doc, dict):
        raise TemplateError(f"{where}: must be a JSON object")
    if doc.get("stage") != stage:
        raise TemplateError(f"{where}: declares stage {doc.get('stage')!r}, not {stage!r}")
    messages = doc.get("messages")
    if not isinstance(messages, list) or not messages:
        raise TemplateError(f"{where}: has no messages")
    loaded = []
    for i, m in enumerate(messages, 1):
        if not (isinstance(m, dict) and all(isinstance(m.get(k), str) for k in ("role", "content"))):
            raise TemplateError(f"{where}: message {i} needs string 'role' and 'content'")
        try:
            loaded.append(PromptMessage(role=m["role"], content=m["content"]))
        except TemplateError as exc:
            raise TemplateError(f"{where}: message {i}: {exc}") from exc
        for name in _PLACEHOLDER.findall(m["content"]):
            if name not in STAGE_PLACEHOLDERS[stage]:
                raise TemplateError(
                    f"{where}: message {i}: placeholder {{{name}}} has no value for stage {stage!r}"
                )
    return tuple(loaded)


def _fill(content: str, values: dict[str, str]) -> str:
    def sub(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(f"template placeholder {{{name}}} has no value for this stage")
        return values[name]

    return _PLACEHOLDER.sub(sub, content)


def _render_messages(
    template: Template, values: dict[str, str]
) -> tuple[PromptMessage, ...]:
    return tuple(PromptMessage(m.role, _fill(m.content, values)) for m in template)


def _event_record(example: FewShotExample, *, with_arguments: bool) -> dict:
    events = []
    for ev in example.gold_events:
        rec: dict = {"trigger": ev.trigger, "type": ev.event_type}
        if with_arguments:
            rec["arguments"] = [{"name": a.name, "role": a.role} for a in ev.arguments]
        events.append(rec)
    return {"text": example.text, "event": events}


def render_examples(examples: Iterable[FewShotExample], *, with_arguments: bool) -> str:
    """Render retrieved examples, rank order preserved, as compact JSON records."""
    rendered = [
        json.dumps(_event_record(ex, with_arguments=with_arguments), ensure_ascii=False)
        for ex in examples
    ]
    if not rendered:
        return NO_EXAMPLES_SENTENCE
    return "\n".join(rendered)


def build_presence_prompt(
    segment: Segment, ontology: Ontology, *, template: Template
) -> PromptBundle:
    """Binary event-presence question over the full event type list."""
    values = {"TEXT": segment.text, "EVENT_TYPES": ", ".join(ontology.event_types)}
    return PromptBundle(_render_messages(template, values), "presence", segment.id)


def build_trigger_prompt(
    segment: Segment,
    examples: Sequence[FewShotExample],
    ontology: Ontology,
    *,
    template: Template,
) -> PromptBundle:
    """Trigger recognition prompt: type inventory, transcript, retrieved examples."""
    values = {
        "TEXT": segment.text,
        "EVENT_TYPES": ", ".join(ontology.event_types),
        "EXAMPLES": render_examples(examples, with_arguments=False),
    }
    return PromptBundle(_render_messages(template, values), "trigger", segment.id)


def build_argument_prompt(
    segment: Segment,
    predicted_types: Sequence[str],
    examples: Sequence[FewShotExample],
    ontology: Ontology,
    *,
    template: Template,
) -> PromptBundle:
    """Argument extraction prompt with the schema projected to the predicted types.

    predicted_types is the event type per predicted trigger, in prediction
    order; duplicates collapse to first occurrence.
    """
    if not predicted_types:
        raise TemplateError("argument prompt requires at least one predicted event type")
    ordered: list[str] = []
    for event_type in predicted_types:
        if event_type not in ontology.type_set:
            raise TemplateError(f"predicted event type {event_type!r} is not in the ontology")
        if event_type not in ordered:
            ordered.append(event_type)
    schema = {t: list(ontology.roles_for(t)) for t in ordered}
    values = {
        "TEXT": segment.text,
        "EVENT_TYPES": ", ".join(ordered),
        "SCHEMA": json.dumps(schema, ensure_ascii=False),
        "EXAMPLES": render_examples(examples, with_arguments=True),
    }
    return PromptBundle(_render_messages(template, values), "argument", segment.id)


def build_format_prompt(
    raw_output: str, segment_id: str = "", *, template: Template
) -> PromptBundle:
    """Reformatting prompt: recover machine-readable JSON from a free-form reply."""
    if not raw_output:
        raise TemplateError("format prompt requires nonempty raw output")
    values = {"TEXT": raw_output}
    return PromptBundle(_render_messages(template, values), "format", segment_id)
