"""Domain types, the event ontology, and dataset/transcript loading.

Every record that enters the pipeline passes through here: gold annotations,
raw transcripts, and the ontology that defines which event types and argument
roles are legal. All types are immutable after load and safe to share across
workers.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Argument",
    "DatasetError",
    "EventMention",
    "LabeledSegment",
    "Ontology",
    "Segment",
    "ValidationError",
    "default_ontology_path",
    "load_gold",
    "load_ontology",
    "load_transcripts",
    "normalize",
]

_WS_RUN = re.compile(r"\s+")


class DatasetError(ValueError):
    """Malformed input file (bad JSON, missing fields, duplicate ids)."""


class ValidationError(ValueError):
    """Record contradicts the ontology or a type invariant."""


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to single spaces."""
    return _WS_RUN.sub(" ", text.strip()).lower()


@dataclass(frozen=True)
class Segment:
    """One transcript unit flowing through the pipeline."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("segment id must be nonempty")


@dataclass(frozen=True)
class Argument:
    """An entity mention participating in an event, with its semantic role."""

    name: str
    role: str

    def __post_init__(self) -> None:
        if not normalize(self.name):
            raise ValidationError("argument name must be nonempty")
        if not normalize(self.role):
            raise ValidationError("argument role must be nonempty")


@dataclass(frozen=True)
class EventMention:
    """A trigger string, its event type, and the role-labeled arguments."""

    trigger: str
    event_type: str
    arguments: tuple[Argument, ...] = ()

    def validate(self, ontology: Ontology, record_id: str = "?") -> None:
        """Check type membership and role compatibility against the ontology."""
        if self.event_type not in ontology.type_set:
            raise ValidationError(
                f"record {record_id!r}: unknown event type {self.event_type!r}"
            )
        allowed = ontology.role_set_for(self.event_type)
        for arg in self.arguments:
            if arg.role not in allowed:
                raise ValidationError(
                    f"record {record_id!r}: role {arg.role!r} is not permitted "
                    f"for event type {self.event_type!r}"
                )


@dataclass(frozen=True)
class Ontology:
    """Closed set of event types and the roles each type permits.

    Order is preserved exactly as in the source file so that prompt renderings
    stay byte-stable; membership checks use the frozen sets.
    """

    event_types: tuple[str, ...]
    roles_by_type: dict[str, tuple[str, ...]]
    type_set: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "type_set", frozenset(self.event_types))
        for etype in self.roles_by_type:
            if etype not in self.type_set:
                raise ValidationError(
                    f"ontology maps roles for unknown event type {etype!r}"
                )

    def role_set_for(self, event_type: str) -> frozenset[str]:
        return frozenset(self.roles_by_type.get(event_type, ()))

    def roles_for(self, event_type: str) -> tuple[str, ...]:
        """Permitted roles in file order."""
        return self.roles_by_type.get(event_type, ())


@dataclass(frozen=True)
class LabeledSegment:
    """A segment paired with its (possibly empty) gold event list."""

    segment: Segment
    gold_events: tuple[EventMention, ...] = ()


def default_ontology_path() -> Path:
    """Path of the ontology file shipped with the package."""
    return Path(str(resources.files("eventpipe").joinpath("data/ontology.json")))


def load_ontology(path: str | Path | None = None) -> Ontology:
    """Load an ontology file: a JSON object {event_type: [role, ...]}."""
    p = Path(path) if path is not None else default_ontology_path()
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"ontology file {p}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(raw, dict) or not raw:
        raise DatasetError(f"ontology file {p}: expected a nonempty JSON object")
    roles_by_type: dict[str, tuple[str, ...]] = {}
    for etype, roles in raw.items():
        if not isinstance(roles, list) or not all(isinstance(r, str) for r in roles):
            raise DatasetError(f"ontology file {p}: roles for {etype!r} must be a string list")
        deduped: list[str] = []
        for r in roles:
            if r not in deduped:
                deduped.append(r)
        roles_by_type[etype] = tuple(deduped)
    return Ontology(event_types=tuple(raw.keys()), roles_by_type=roles_by_type)


def _iter_json_records(path: Path) -> Iterable[tuple[int, Any]]:
    """Yield (line_number, record) from a JSON array or JSON-lines file."""
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON at line {exc.lineno}") from exc
        for i, rec in enumerate(records, start=1):
            yield i, rec
        return
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield lineno, json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON at line {lineno}") from exc


def _parse_event(obj: Any, record_id: str) -> EventMention:
    if not isinstance(obj, dict):
        raise DatasetError(f"record {record_id!r}: event entry must be an object")
    trigger = obj.get("trigger")
    etype = obj.get("type")
    if not isinstance(trigger, str) or not trigger.strip():
        raise DatasetError(f"record {record_id!r}: event is missing a trigger string")
    if not isinstance(etype, str) or not etype.strip():
        raise DatasetError(f"record {record_id!r}: event is missing a type string")
    raw_args = obj.get("arguments", [])
    if not isinstance(raw_args, list):
        raise DatasetError(f"record {record_id!r}: arguments must be a list")
    args = []
    for a in raw_args:
        if not isinstance(a, dict) or "name" not in a or "role" not in a:
            raise DatasetError(
                f"record {record_id!r}: each argument needs 'name' and 'role'"
            )
        try:
            args.append(Argument(name=str(a["name"]), role=str(a["role"])))
        except ValidationError as exc:
            raise ValidationError(f"record {record_id!r}: {exc}") from exc
    return EventMention(trigger=trigger, event_type=etype, arguments=tuple(args))


def load_gold(path: str | Path, ontology: Ontology) -> list[LabeledSegment]:
    """Load and validate a gold file (JSON array or JSON-lines of id/event records).

    Gold event lists are preserved in file order. A record may optionally carry
    a ``text`` field; absent text defaults to the empty string and is expected
    to be joined from a transcript file by id.
    """
    path = Path(path)
    out: list[LabeledSegment] = []
    seen: set[str] = set()
    for lineno, rec in _iter_json_records(path):
        if not isinstance(rec, dict) or "id" not in rec:
            raise DatasetError(f"{path}: record at line {lineno} has no 'id' field")
        rid = str(rec["id"])
        if rid in seen:
            raise DatasetError(f"{path}: duplicate id {rid!r}")
        seen.add(rid)
        raw_events = rec.get("event", [])
        if not isinstance(raw_events, list):
            raise DatasetError(f"record {rid!r}: 'event' must be a list")
        events = []
        for obj in raw_events:
            ev = _parse_event(obj, rid)
            ev.validate(ontology, record_id=rid)
            events.append(ev)
        text = rec.get("text", "")
        if not isinstance(text, str):
            raise DatasetError(f"record {rid!r}: 'text' must be a string")
        out.append(LabeledSegment(segment=Segment(id=rid, text=text), gold_events=tuple(events)))
    return out


def load_transcripts(path: str | Path) -> list[Segment]:
    """Load a transcript file: JSON-lines {"id": string, "text": string}."""
    path = Path(path)
    out: list[Segment] = []
    seen: set[str] = set()
    for lineno, rec in _iter_json_records(path):
        if not isinstance(rec, dict) or "id" not in rec or "text" not in rec:
            raise DatasetError(
                f"{path}: record at line {lineno} needs 'id' and 'text' fields"
            )
        rid = str(rec["id"])
        if rid in seen:
            raise DatasetError(f"{path}: duplicate id {rid!r}")
        seen.add(rid)
        text = rec["text"]
        if not isinstance(text, str):
            raise DatasetError(f"{path}: record {rid!r}: 'text' must be a string")
        out.append(Segment(id=rid, text=text))
    return out

