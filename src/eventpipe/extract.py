"""Extraction stages: trigger recognition, argument extraction, JSON post-processing.

Replies are free-form model text. Deterministic JSON-tail recovery runs first
and an LLM reformatting call is the fallback, so a well-formed reply costs no
extra provider traffic. Trigger strings are kept verbatim; normalization is
scoring's job.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from importlib import resources

from .llm import FormatFailureError, LlmProvider, ResponseCache, complete_with_retry
from .model import Argument, EventMention, Ontology, Segment, normalize
from .prompts import build_argument_prompt, build_format_prompt, build_trigger_prompt
from .retrieval import EmbeddingProvider, FewShotExample, SupportIndex, embed, search

__all__ = [
    "ArgumentStageResult",
    "PostprocessEntry",
    "PostprocessReport",
    "RawStageOutput",
    "TriggerPrediction",
    "TriggerStageResult",
    "extract_arguments",
    "extract_triggers",
    "parse_argument_reply",
    "parse_trigger_reply",
    "postprocess",
    "recover_json_tail",
    "repair_arguments",
    "retrieve_examples",
]

_NO_EVENT = re.compile(r"\bno\s+(?:events?|triggers?)\b", re.IGNORECASE)
_NO_ARGUMENT = re.compile(r"\bno\s+arguments?\b", re.IGNORECASE)


@dataclass(frozen=True)
class TriggerPrediction:
    segment_id: str
    trigger: str
    event_type: str

    def __post_init__(self):
        if not self.trigger:
            raise ValueError("trigger must be nonempty")
        if not self.event_type:
            raise ValueError("event_type must be nonempty")


@dataclass(frozen=True)
class RawStageOutput:
    """Audit record of the accepted (or final rejected) reply for one stage call."""

    segment_id: str
    stage: str
    raw_text: str
    attempts: int

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class TriggerStageResult:
    segment_id: str
    predictions: tuple[TriggerPrediction, ...]
    raw: RawStageOutput
    failed: bool
    example_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArgumentStageResult:
    """Events of the accepted reply, or trigger-only events when every attempt failed.

    recovered holds the canonical records that the verifier recovered from
    raw (None: no usable JSON), so repair never parses the reply again.
    """

    segment_id: str
    events: tuple[EventMention, ...]
    raw: RawStageOutput
    failed: bool
    example_ids: tuple[str, ...] = ()
    recovered: list[dict] | None = None


# --- JSON recovery -----------------------------------------------------------

_alias_table: dict[str, list[str]] | None = None


def _aliases() -> dict[str, list[str]]:
    global _alias_table
    if _alias_table is None:
        raw = resources.files("eventpipe").joinpath("data/key_aliases.json").read_text("utf-8")
        _alias_table = json.loads(raw)
    return _alias_table


def _lookup(obj: dict, canonical: str):
    for alias in _aliases()[canonical]:
        if alias in obj:
            return obj[alias]
    return None


def _last_json_value(text: str):
    """The last top-level balanced JSON array or object in text, else None."""
    decoder = json.JSONDecoder()
    best = None
    i = 0
    n = len(text)
    while i < n:
        if text[i] in "[{":
            try:
                value, end = decoder.raw_decode(text, i)
            except (ValueError, RecursionError):
                # Nesting deeper than the decoder's recursion limit counts as non-JSON.
                i += 1
                continue
            best = value
            i = max(end, i + 1)
        else:
            i += 1
    return best


def _unwrap_events(value) -> list | None:
    if isinstance(value, list):
        return value
    if isinstance(value, dict):
        if _lookup(value, "trigger") is not None or _lookup(value, "type") is not None:
            return [value]
        wrapped = _lookup(value, "_wrapper")
        if isinstance(wrapped, (list, dict)):
            return _unwrap_events(wrapped)
    return None


def _canonical_arguments(value) -> list[dict] | None:
    if value is None:
        return []
    if isinstance(value, dict):
        value = [value]
    if not isinstance(value, list):
        return None
    out: list[dict] = []
    for item in value:
        if not isinstance(item, dict):
            return None
        name = _lookup(item, "name")
        role = _lookup(item, "role")
        if not isinstance(name, str) or not isinstance(role, str):
            return None
        if not name.strip() or not role.strip():
            return None
        out.append({"name": name, "role": role})
    return out


def _canonical_entry(entry) -> list[dict] | None:
    """Map one reply object to canonical event records, splitting multi-trigger objects.

    A split copies the arguments to every trigger: the object claimed them for
    all its triggers, and there is no basis for assigning them to just one.
    """
    if not isinstance(entry, dict):
        return None
    triggers = _lookup(entry, "trigger")
    types = _lookup(entry, "type")
    if isinstance(triggers, str):
        triggers = [triggers]
    if isinstance(types, str):
        types = [types]
    if not isinstance(triggers, list) or not isinstance(types, list):
        return None
    if not all(isinstance(t, str) and t.strip() for t in triggers):
        return None
    if not all(isinstance(t, str) and t.strip() for t in types):
        return None
    if not triggers or not types:
        return None
    if len(types) == 1:
        types = types * len(triggers)
    if len(types) != len(triggers):
        return None
    arguments = _canonical_arguments(_lookup(entry, "arguments"))
    if arguments is None:
        return None
    return [
        {"trigger": trig, "type": ty, "arguments": [dict(a) for a in arguments]}
        for trig, ty in zip(triggers, types)
    ]


def recover_json_tail(raw_text: str) -> list[dict] | None:
    """Recover the last balanced JSON value from raw_text as canonical event records.

    Everything before the final balanced JSON value is ignored (models often
    echo the transcript first). Key aliases from the shipped alias table are
    mapped to trigger/type/arguments/name/role. Returns None when no usable
    JSON is present; an empty list is a valid no-event result.
    """
    value = _last_json_value(raw_text)
    if value is None:
        return None
    entries = _unwrap_events(value)
    if entries is None:
        return None
    out: list[dict] = []
    for entry in entries:
        mapped = _canonical_entry(entry)
        if mapped is None:
            return None
        out.extend(mapped)
    return out


# --- reply parsing ------------------------------------------------------------


def parse_trigger_reply(
    raw: str, segment_id: str, ontology: Ontology
) -> list[TriggerPrediction] | None:
    """Parse a trigger-stage reply; None means unparseable (caller retries).

    An explicit no-event answer with no JSON counts as a valid empty result.
    Any event type outside the ontology rejects the whole reply.
    """
    canonical = recover_json_tail(raw)
    if canonical is None:
        if _NO_EVENT.search(raw):
            return []
        return None
    predictions: list[TriggerPrediction] = []
    for entry in canonical:
        if entry["type"] not in ontology.type_set:
            return None
        predictions.append(
            TriggerPrediction(segment_id=segment_id, trigger=entry["trigger"], event_type=entry["type"])
        )
    return predictions


def _canonical_role(role: str, event_type: str, ontology: Ontology) -> str | None:
    allowed = ontology.role_set_for(event_type)
    if role in allowed:
        return role
    lowered = role.strip().lower()
    for candidate in ontology.roles_for(event_type):
        if candidate.lower() == lowered:
            return candidate
    return None


def _match_entries_to_triggers(
    canonical: list[dict] | None,
    triggers: Sequence[TriggerPrediction],
    ontology: Ontology,
    *,
    strict: bool,
) -> list[EventMention] | None:
    """Assign canonical reply entries to the predicted triggers.

    Entries match a trigger by (normalized trigger, type); unmatched entries
    are dropped, and triggers with no entry keep an empty argument list. With
    strict=True a disallowed role rejects the reply; otherwise the offending
    argument is dropped.
    """
    queues: dict[tuple[str, str], list[list[dict]]] = {}
    single_occurrence = {}
    keys = [(normalize(t.trigger), t.event_type) for t in triggers]
    for key in keys:
        single_occurrence[key] = keys.count(key) == 1
    for entry in canonical or []:
        key = (normalize(entry["trigger"]), entry["type"])
        queues.setdefault(key, []).append(entry["arguments"])
    events: list[EventMention] = []
    for trig, key in zip(triggers, keys):
        queue = queues.get(key, [])
        if single_occurrence[key]:
            # One predicted occurrence: merge every matching entry's arguments,
            # since models often emit one object per argument.
            raw_args = [a for entry_args in queue for a in entry_args]
            queue.clear()
        else:
            raw_args = queue.pop(0) if queue else []
        args: list[Argument] = []
        for a in raw_args:
            role = _canonical_role(a["role"], trig.event_type, ontology)
            if role is None:
                if strict:
                    return None
                continue
            if not normalize(a["name"]):
                if strict:
                    return None
                continue
            args.append(Argument(name=a["name"], role=role))
        events.append(
            EventMention(trigger=trig.trigger, event_type=trig.event_type, arguments=tuple(args))
        )
    return events


def parse_argument_reply(
    raw: str, triggers: Sequence[TriggerPrediction], ontology: Ontology
) -> list[EventMention] | None:
    """Parse an argument-stage reply against the predicted triggers; None = retry."""
    return _argument_events(raw, recover_json_tail(raw), triggers, ontology)


def _argument_events(
    raw: str, canonical: list[dict] | None, triggers: Sequence[TriggerPrediction], ontology: Ontology
) -> list[EventMention] | None:
    """Strictly match raw's recovered records; a no-argument answer without JSON is empty."""
    if canonical is None and _NO_ARGUMENT.search(raw):
        canonical = []
    if canonical is None:
        return None
    return _match_entries_to_triggers(canonical, triggers, ontology, strict=True)


# --- retrieval plumbing -------------------------------------------------------


def retrieve_examples(
    segment: Segment,
    index: SupportIndex | None,
    embedding_provider: EmbeddingProvider | None,
    k: int,
    *,
    where: Callable[[FewShotExample], bool] | None = None,
) -> list[FewShotExample]:
    """Top-k support examples for a segment; empty for k=0 or blank text."""
    if index is None or embedding_provider is None or k <= 0:
        return []
    if not normalize(segment.text):
        return []
    query = embed(segment.text, embedding_provider)
    hits = search(index, query, k, where=where)
    by_id = dict(zip(index.example_ids, index.examples))
    return [by_id[example_id] for example_id, _ in hits]


# --- stages -------------------------------------------------------------------


def extract_triggers(
    segment: Segment,
    index: SupportIndex | None,
    ontology: Ontology,
    provider: LlmProvider,
    embedding_provider: EmbeddingProvider | None = None,
    *,
    k: int = 10,
    cache: ResponseCache | None = None,
    max_attempts: int = 3,
    corrective: bool = False,
    templates_dir=None,
) -> TriggerStageResult:
    """Run trigger recognition for one gated-in segment."""
    examples = retrieve_examples(segment, index, embedding_provider, k)
    bundle = build_trigger_prompt(segment, examples, ontology, templates_dir=templates_dir)
    parsed: dict = {}

    def verifier(text: str) -> bool:
        result = parse_trigger_reply(text, segment.id, ontology)
        if result is None:
            return False
        parsed["value"] = result
        return True

    example_ids = tuple(ex.example_id for ex in examples)
    try:
        completion = complete_with_retry(
            provider, bundle, verifier, max_attempts=max_attempts, cache=cache, corrective=corrective
        )
    except FormatFailureError as exc:
        raw = RawStageOutput(segment.id, "trigger", exc.last_response, exc.attempts)
        return TriggerStageResult(segment.id, (), raw, True, example_ids)
    raw = RawStageOutput(segment.id, "trigger", completion.text, completion.attempts)
    return TriggerStageResult(segment.id, tuple(parsed["value"]), raw, False, example_ids)


def extract_arguments(
    segment: Segment,
    triggers: Sequence[TriggerPrediction],
    index: SupportIndex | None,
    ontology: Ontology,
    provider: LlmProvider,
    embedding_provider: EmbeddingProvider | None = None,
    *,
    k: int = 10,
    cache: ResponseCache | None = None,
    max_attempts: int = 3,
    corrective: bool = False,
    same_type_filter: bool = False,
    templates_dir=None,
) -> ArgumentStageResult:
    """Run argument extraction for one segment's predicted triggers.

    Format failure after retries degrades to the triggers with empty argument
    lists (failed=True) rather than dropping them.
    """
    if not triggers:
        raise ValueError("extract_arguments requires at least one predicted trigger")
    predicted_types = [t.event_type for t in triggers]
    where = None
    if same_type_filter:
        wanted = set(predicted_types)
        where = lambda ex: any(ev.event_type in wanted for ev in ex.gold_events)
    examples = retrieve_examples(segment, index, embedding_provider, k, where=where)
    bundle = build_argument_prompt(
        segment, predicted_types, examples, ontology, templates_dir=templates_dir
    )
    parsed: dict = {}

    def verifier(text: str) -> bool:
        parsed["recovered"] = recover_json_tail(text)
        parsed["events"] = _argument_events(text, parsed["recovered"], triggers, ontology)
        return parsed["events"] is not None

    example_ids = tuple(ex.example_id for ex in examples)
    try:
        completion = complete_with_retry(
            provider, bundle, verifier, max_attempts=max_attempts, cache=cache, corrective=corrective
        )
    except FormatFailureError as exc:
        events = tuple(
            EventMention(trigger=t.trigger, event_type=t.event_type, arguments=()) for t in triggers
        )
        raw = RawStageOutput(segment.id, "argument", exc.last_response, exc.attempts)
        return ArgumentStageResult(
            segment.id, events, raw, True, example_ids, parsed["recovered"]
        )
    raw = RawStageOutput(segment.id, "argument", completion.text, completion.attempts)
    return ArgumentStageResult(
        segment.id, tuple(parsed["events"]), raw, False, example_ids, parsed["recovered"]
    )


# --- post-processing ----------------------------------------------------------


@dataclass(frozen=True)
class PostprocessEntry:
    segment_id: str
    events: tuple[EventMention, ...]
    formatting_attempts: int
    excluded: bool
    degraded: bool


@dataclass
class PostprocessReport:
    entries: list[PostprocessEntry] = field(default_factory=list)

    @property
    def excluded_ids(self) -> list[str]:
        return [e.segment_id for e in self.entries if e.excluded]


def _validated_events(canonical: list[dict], ontology: Ontology) -> list[EventMention] | None:
    """Canonical records as EventMentions, or None if any record is invalid."""
    events: list[EventMention] = []
    for entry in canonical:
        if entry["type"] not in ontology.type_set:
            return None
        args = []
        for a in entry["arguments"]:
            role = _canonical_role(a["role"], entry["type"], ontology)
            if role is None or not normalize(a["name"]):
                return None
            args.append(Argument(name=a["name"], role=role))
        events.append(
            EventMention(trigger=entry["trigger"], event_type=entry["type"], arguments=tuple(args))
        )
    return events


def postprocess(
    raw_outputs: Sequence[RawStageOutput],
    ontology: Ontology,
    provider: LlmProvider | None,
    *,
    cache: ResponseCache | None = None,
    max_attempts: int = 3,
    templates_dir=None,
) -> PostprocessReport:
    """Turn standalone raw replies into validated events.

    Deterministic JSON-tail recovery is tried first; only when it fails (or
    yields ontology-invalid records) is the reformatting prompt sent. A reply
    that stays unusable excludes its segment, which the report lists.
    """

    def validated(canonical):
        return None if canonical is None else _validated_events(canonical, ontology)

    report = PostprocessReport()
    for raw in raw_outputs:
        events, attempts = validated(recover_json_tail(raw.raw_text)), 0
        if events is None:
            events, attempts = _format_repair(
                raw, validated, provider, cache, max_attempts, templates_dir
            )
        report.entries.append(
            PostprocessEntry(raw.segment_id, tuple(events or ()), attempts, events is None, False)
        )
    return report


def repair_arguments(
    result: ArgumentStageResult,
    triggers: Sequence[TriggerPrediction],
    ontology: Ontology,
    provider: LlmProvider | None,
    *,
    cache: ResponseCache | None = None,
    max_attempts: int = 3,
    templates_dir=None,
) -> PostprocessEntry:
    """Final events for one segment's argument result, without parsing a reply again.

    An accepted reply's events are returned as parsed. A failed reply's
    recovered records are matched to the committed triggers non-strictly:
    disallowed roles and unmatched entries are dropped. Only a failed reply
    with no recoverable JSON goes through the formatting prompt; if that fails
    as well, the segment is degraded to its triggers with empty argument lists.
    """
    if not result.failed:
        return PostprocessEntry(result.segment_id, result.events, 0, False, False)
    canonical, attempts = result.recovered, 0
    if canonical is None:
        canonical, attempts = _format_repair(
            result.raw, lambda c: c, provider, cache, max_attempts, templates_dir
        )
    events = _match_entries_to_triggers(canonical, triggers, ontology, strict=False)
    return PostprocessEntry(result.segment_id, tuple(events), attempts, False, canonical is None)


def _format_repair(raw: RawStageOutput, convert, provider, cache, max_attempts, templates_dir):
    """(convert(records) of the first formatting reply it accepts, or None; attempts).

    convert rejects a reply by returning None. Blank text, or no provider,
    sends nothing and recovers nothing.
    """
    if provider is None or not raw.raw_text.strip():
        return None, 0
    bundle = build_format_prompt(raw.raw_text, raw.segment_id, templates_dir=templates_dir)
    converted: dict = {}

    def verifier(text: str) -> bool:
        converted["value"] = convert(recover_json_tail(text))
        return converted["value"] is not None

    try:
        completion = complete_with_retry(
            provider, bundle, verifier, max_attempts=max_attempts, cache=cache
        )
    except FormatFailureError as exc:
        return None, exc.attempts
    return converted["value"], completion.attempts
