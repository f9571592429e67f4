"""Domain types, the event ontology, dataset loading and the row-file codec.

Every record that enters the pipeline passes through here: gold annotations,
raw transcripts, and the ontology that defines which event types and argument
roles are legal. All types are immutable after load and safe to share across
workers. Every row file (JSON lines or one JSON array) is read through
``iter_json_records`` and ``check_rows``, and every row or report file is
written through ``write_rows`` or ``write_json``, which replace the file whole.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "Argument",
    "DatasetError",
    "EventMention",
    "LabeledSegment",
    "Lines",
    "Ontology",
    "Segment",
    "ValidationError",
    "check_rows",
    "default_ontology_path",
    "event_to_dict",
    "iter_json_records",
    "load_gold",
    "load_ontology",
    "load_transcripts",
    "normalize",
    "parse_json",
    "read_rows",
    "write_json",
    "write_rows",
]

_WS_RUN = re.compile(r"\s+")


class DatasetError(ValueError):
    """Malformed input file (bad JSON, missing fields, duplicate ids)."""


class ValidationError(ValueError):
    """Record contradicts the ontology or a type invariant."""


# An input file's bytes as an iterable of lines (a binary file, say). A loader
# given them as data parses them in place of reading its path, which then only
# names the file in messages.
Lines = Iterable[bytes]


def parse_json(data: bytes, where: str, error: type[ValueError] = DatasetError) -> Any:
    """The JSON document in data; invalid UTF-8 or JSON raises error naming where."""
    try:
        text = data.decode("utf-8")
        del data  # freed before the document's objects are built, unless the caller holds it
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise error(f"{where}: invalid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON at line {exc.lineno}") from exc


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
        # strip() empties exactly the strings normalize() empties: both use
        # one whitespace table, and lower() never empties a string.
        if not self.name.strip():
            raise ValidationError("argument name must be nonempty")
        if not self.role.strip():
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


def load_ontology(path: str | Path | None = None, *, data: Lines | None = None) -> Ontology:
    """Load an ontology file: a JSON object {event_type: [role, ...]}."""
    p = Path(path) if path is not None else default_ontology_path()
    raw = parse_json(p.read_bytes() if data is None else b"".join(data), f"ontology file {p}")
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


def _lines(path: Path, pieces: Iterable[bytes]) -> Iterator[tuple[int, str]]:
    """(line number, line) as str.splitlines numbers them, decoded as they are read.

    The file comes split at each newline byte (UTF-8 never puts one inside a
    character), and each piece is split by splitlines, so the lines are
    exactly those of the decoded whole file. Invalid UTF-8 raises DatasetError.
    """
    lineno = 0
    for piece in pieces:
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: invalid UTF-8 at line {lineno + 1}") from exc
        for line in text.splitlines():
            lineno += 1
            yield lineno, line


def iter_json_records(path: str | Path, data: Lines | None = None) -> Iterator[tuple[int, Any]]:
    """Yield (line_number, record) from a JSON array or JSON-lines file.

    Array elements are numbered from 1. A JSON-lines file is read only as far
    as the records taken, so a caller can judge a header without reading the
    body. Invalid JSON or UTF-8 raises DatasetError naming the path and, for
    JSON lines, the line.
    """
    path = Path(path)
    with path.open("rb") if data is None else contextlib.nullcontext(data) as source:
        pieces = iter(source)
        head = []  # the pieces up to the first one that is not blank
        for piece in pieces:
            head.append(piece)
            if piece.decode("utf-8", "replace").strip():
                break
        lines = (
            (lineno, line)
            for lineno, line in _lines(path, itertools.chain(head, pieces))
            if line.strip()
        )
        first = next(lines, None)  # the first non-blank line is in head's last piece
        if first is None:
            return
        if first[1].lstrip().startswith("["):
            records = parse_json(b"".join(itertools.chain(head, pieces)), str(path))
            yield from enumerate(records, start=1)
            return
        for lineno, line in itertools.chain([first], lines):
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: invalid JSON at line {lineno}") from exc


def check_rows(
    path: str | Path, records: Iterable[tuple[int, Any]], fields: tuple[str, ...] = ()
) -> Iterator[tuple[int, dict]]:
    """Yield records that are objects holding every named field and an 'id' not seen before."""
    required = ("id",) + fields
    required_set = frozenset(required)
    seen: set[str] = set()
    for lineno, rec in records:
        if not isinstance(rec, dict) or not rec.keys() >= required_set:
            names = " and ".join(repr(key) for key in required)
            raise DatasetError(f"{path}: record at line {lineno} needs {names}")
        rid = str(rec["id"])
        if rid in seen:
            raise DatasetError(f"{path}: duplicate id {rid!r} at line {lineno}")
        seen.add(rid)
        yield lineno, rec


def read_rows(
    path: str | Path, fields: tuple[str, ...] = (), data: Lines | None = None
) -> Iterator[tuple[int, dict]]:
    """Read a headerless row file: iter_json_records (of data, if given), then check_rows."""
    return check_rows(path, iter_json_records(path, data), fields)


def _replace(path: str | Path, chunks: Iterable[str]) -> None:
    """Write chunks to a temporary file beside path, then rename it over path.

    An error or crash mid-write leaves the previous file whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: str | Path, rows: Iterable[dict]) -> None:
    """Replace path with one sorted-key JSON line per row."""
    _replace(path, (json.dumps(row, sort_keys=True, ensure_ascii=True) + "\n" for row in rows))


def write_json(path: str | Path, obj: Any) -> None:
    """Replace path with one indented, sorted-key JSON document."""
    _replace(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


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


def event_to_dict(ev: EventMention) -> dict:
    """The row form of an event; _parse_event reads it back."""
    return {
        "trigger": ev.trigger,
        "type": ev.event_type,
        "arguments": [{"name": a.name, "role": a.role} for a in ev.arguments],
    }


def load_gold(
    path: str | Path, ontology: Ontology, *, data: Lines | None = None
) -> list[LabeledSegment]:
    """Load and validate a gold file (JSON array or JSON-lines of id/event records).

    Gold event lists are preserved in file order. A record may optionally carry
    a ``text`` field; absent text defaults to the empty string and is expected
    to be joined from a transcript file by id.
    """
    out: list[LabeledSegment] = []
    for _, rec in read_rows(path, data=data):
        rid = str(rec["id"])
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


def load_transcripts(path: str | Path, *, data: Lines | None = None) -> list[Segment]:
    """Load a transcript file: JSON-lines {"id": string, "text": string}."""
    out: list[Segment] = []
    for _, rec in read_rows(path, ("text",), data):
        rid = str(rec["id"])
        text = rec["text"]
        if not isinstance(text, str):
            raise DatasetError(f"{path}: record {rid!r}: 'text' must be a string")
        out.append(Segment(id=rid, text=text))
    return out

