"""Domain types, the event ontology, dataset loading and the row-file codec.

Every record that enters the pipeline passes through here: gold annotations,
raw transcripts, and the ontology that defines which event types and argument
roles are legal. An event is a {"trigger", "type", "arguments"} dict, each
argument a {"name", "role"} dict, from extraction to scoring; check_event is
its one check. No stage mutates an event it is given, so events are shared
across workers as they are. A loaded gold or support file is LabeledRows:
ids, texts and each row's events as flat tuples, whose dicts are rebuilt
when the row is read. Every row file (JSON lines or one JSON array) is read
through ``iter_json_records`` and ``check_rows``, which tests each field its
reader names against ``FIELD_TYPES``, the one field vocabulary. A JSON line,
of a row file or of the completion cache, is decoded by ``_decode_line``,
which accepts and returns exactly what ``json.loads`` does. Every output file
but the cache, which is appended to, is replaced whole through ``_replace``: row
and report files by way of ``write_rows`` or ``write_json``, the support index
by ``retrieval.save_index``.
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
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

__all__ = [
    "DatasetError",
    "FIELD_TYPES",
    "LabeledRows",
    "LabeledSegment",
    "Lines",
    "Ontology",
    "Segment",
    "check_event",
    "check_rows",
    "default_ontology_path",
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
# JSON's whitespace: json.loads skips these four characters, and no others,
# around a document.
_JSON_SPACE = " \t\n\r"
_JSON_SPACE_RUN = re.compile(r"[ \t\n\r]*")
_raw_decode = json.JSONDecoder().raw_decode


class DatasetError(ValueError):
    """Malformed input: bad JSON, missing fields, duplicate ids, or a record the ontology rejects."""


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


def _decode_line(line: str) -> Any:
    """The JSON value of one line, exactly as ``json.loads(line)`` decodes it.

    The line either holds one JSON value between runs of JSON whitespace or
    raises json.JSONDecodeError, as json.loads does; a leading BOM is an
    error too. It calls ``raw_decode`` directly, skipping json.loads's
    argument checks and its regex scans of a line that begins with a value.
    """
    start = _JSON_SPACE_RUN.match(line).end() if line[:1] in _JSON_SPACE else 0
    value, end = _raw_decode(line, start)
    if end != len(line) and line[end:].strip(_JSON_SPACE):
        raise json.JSONDecodeError("Extra data", line, _JSON_SPACE_RUN.match(line, end).end())
    return value


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
            raise DatasetError("segment id must be nonempty")


@dataclass(frozen=True)
class Ontology:
    """Closed set of event types and the roles each type permits.

    Order is preserved exactly as in the source file so that prompt renderings
    stay byte-stable; membership checks use the frozen sets.
    """

    event_types: tuple[str, ...]
    roles_by_type: dict[str, tuple[str, ...]]
    type_set: frozenset[str] = field(init=False, repr=False)
    _role_sets: dict[str, frozenset[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "type_set", frozenset(self.event_types))
        for etype in self.roles_by_type:
            if etype not in self.type_set:
                raise DatasetError(
                    f"ontology maps roles for unknown event type {etype!r}"
                )
        role_sets = {etype: frozenset(roles) for etype, roles in self.roles_by_type.items()}
        object.__setattr__(self, "_role_sets", role_sets)

    def role_set_for(self, event_type: str) -> frozenset[str]:
        return self._role_sets.get(event_type, frozenset())

    def roles_for(self, event_type: str) -> tuple[str, ...]:
        """Permitted roles in file order."""
        return self.roles_by_type.get(event_type, ())


@dataclass(frozen=True)
class LabeledSegment(Segment):
    """A segment with its (possibly empty) gold event list: a gold row or a support example."""

    gold_events: tuple[dict, ...] = ()


# A checked event as one flat tuple (trigger, type, name, role, name, role, ...).
# The cyclic collector stops tracking a tuple of strings the first time it sees
# it, so a support set's events cost no collection time, as dicts would.
Event = tuple[str, ...]


@dataclass(frozen=True)
class LabeledRows(Sequence[LabeledSegment]):
    """A loaded gold or support file as row-aligned columns.

    Reading row i rebuilds the LabeledSegment of ids[i], texts[i] and the
    check_event dicts of events[i].
    """

    ids: tuple[str, ...]
    texts: tuple[str, ...]
    events: tuple[tuple[Event, ...], ...]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int | slice) -> LabeledSegment | LabeledRows:
        if isinstance(row, slice):
            return self.take(range(len(self))[row])
        events = tuple(map(_event_dict, self.events[row]))
        return LabeledSegment(self.ids[row], self.texts[row], events)

    def take(self, rows: Sequence[int]) -> LabeledRows:
        """The given rows, in the given order."""
        columns = (self.ids, self.texts, self.events)
        return LabeledRows(*(tuple(column[row] for row in rows) for column in columns))


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
    """(line number, line) of a file that comes split at each newline byte, decoded as read.

    Only a newline byte ends a line: U+2028, U+2029 and U+0085 are valid
    inside a JSON string, so they must not split a record as str.splitlines
    would. Invalid UTF-8 raises DatasetError.
    """
    for lineno, piece in enumerate(pieces, start=1):
        try:
            line = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: invalid UTF-8 at line {lineno}") from exc
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
                yield lineno, _decode_line(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: invalid JSON at line {lineno}") from exc


# The one field vocabulary: what each row field other than "id", of any row
# file, must hold. A field name maps to a test of its JSON value and the
# value's description, as messages name it.
FIELD_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    **dict.fromkeys(
        ("rule", "learned", "llm", "gated_in", "failed", "present"),
        (lambda v: isinstance(v, bool), "true or false"),
    ),
    **dict.fromkeys(("event", "events", "predictions"), (lambda v: isinstance(v, list), "a list")),
    **dict.fromkeys(("text", "raw"), (lambda v: isinstance(v, str), "a string")),
    "attempts": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "examples": (
        lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v),
        "a list of strings",
    ),
    # A number, not a bool; NaN fails the range test.
    "p": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1,
        "a number in [0, 1]",
    ),
}


def check_rows(
    path: str | Path,
    records: Iterable[tuple[int, Any]],
    fields: tuple[str, ...] = (),
    optional: tuple[str, ...] = (),
) -> Iterator[tuple[int, dict]]:
    """Yield records that are objects holding every named field and an 'id' not seen before.

    A field named in fields or optional that a record holds must pass its
    FIELD_TYPES test. Each fault is a DatasetError in one form, "<path>:
    line <n>: ...", that names the record where it has an id: a missing
    field, a repeated id, or a field that fails its test. A name without a
    FIELD_TYPES entry is a KeyError, raised before the first record is read.
    """
    required = tuple(dict.fromkeys(("id", *fields)))
    named = dict.fromkeys((*required[1:], *optional))
    checks = [(name, *FIELD_TYPES[name]) for name in named]
    required_set = frozenset(required)
    seen: set[str] = set()
    for lineno, rec in records:
        if not isinstance(rec, dict) or not rec.keys() >= required_set:
            which = f" {str(rec['id'])!r}" if isinstance(rec, dict) and "id" in rec else ""
            names = " and ".join(repr(key) for key in required)
            raise DatasetError(f"{path}: line {lineno}: record{which} needs {names}")
        rid = str(rec["id"])
        if rid in seen:
            raise DatasetError(f"{path}: line {lineno}: duplicate id {rid!r}")
        seen.add(rid)
        for name, valid, kind in checks:
            if name in rec and not valid(rec[name]):
                message = f"record {rid!r}: {name!r} must be {kind}"
                raise DatasetError(f"{path}: line {lineno}: {message}")
        yield lineno, rec


def read_rows(
    path: str | Path,
    fields: tuple[str, ...] = (),
    data: Lines | None = None,
    *,
    optional: tuple[str, ...] = (),
) -> Iterator[tuple[int, dict]]:
    """Read a headerless row file: iter_json_records (of data, if given), then check_rows."""
    return check_rows(path, iter_json_records(path, data), fields, optional)


def _replace(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call write on a temporary binary file beside path, then rename it over path.

    An error or crash mid-write leaves the previous file whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: str | Path, rows: Iterable[dict]) -> None:
    """Replace path with one sorted-key JSON line per row."""
    lines = ((json.dumps(row, sort_keys=True, ensure_ascii=True) + "\n").encode() for row in rows)
    _replace(path, lambda fh: fh.writelines(lines))


def write_json(path: str | Path, obj: Any) -> None:
    """Replace path with one indented, sorted-key JSON document."""
    _replace(path, lambda fh: fh.write((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()))


def check_event(obj: Any, record_id: str, ontology: Ontology) -> dict:
    """The event entry obj, checked, as a new {"trigger", "type", "arguments"} dict.

    Each argument becomes {"name": str(name), "role": str(role)}; an absent
    argument list is empty. A malformed entry, a blank argument name or role,
    or a type or role the ontology does not permit, is a DatasetError naming
    the record.
    """
    return _event_dict(_checked_event(obj, record_id, ontology))


def _event_dict(event: Event) -> dict:
    names, roles = event[2::2], event[3::2]
    return {
        "trigger": event[0],
        "type": event[1],
        "arguments": [{"name": name, "role": role} for name, role in zip(names, roles)],
    }


def _checked_event(obj: Any, record_id: str, ontology: Ontology) -> Event:
    """check_event's checks; the event as a tuple."""
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
    args = []  # name, role, name, role, ...
    for a in raw_args:
        if not isinstance(a, dict) or "name" not in a or "role" not in a:
            raise DatasetError(
                f"record {record_id!r}: each argument needs 'name' and 'role'"
            )
        name, role = str(a["name"]), str(a["role"])
        # strip() empties exactly the strings normalize() empties: both use
        # one whitespace table, and lower() never empties a string.
        if not name.strip():
            raise DatasetError(f"record {record_id!r}: argument name must be nonempty")
        if not role.strip():
            raise DatasetError(f"record {record_id!r}: argument role must be nonempty")
        args += name, role
    if etype not in ontology.type_set:
        raise DatasetError(f"record {record_id!r}: unknown event type {etype!r}")
    allowed = ontology.role_set_for(etype)
    for role in args[1::2]:
        if role not in allowed:
            raise DatasetError(
                f"record {record_id!r}: role {role!r} is not permitted "
                f"for event type {etype!r}"
            )
    return (trigger, etype, *args)


def load_gold(path: str | Path, ontology: Ontology, *, data: Lines | None = None) -> LabeledRows:
    """Load and validate a gold file (JSON array or JSON-lines of id/event records).

    Every event is checked as the file is read; a bad record is a DatasetError
    naming the file, the line and the record. Gold event lists are preserved
    in file order. A record may optionally carry a ``text`` field; absent text
    defaults to the empty string and is expected to be joined from a
    transcript file by id.
    """
    ids: list[str] = []
    texts: list[str] = []
    events: list[tuple[Event, ...]] = []
    for lineno, rec in read_rows(path, data=data, optional=("event", "text")):
        rid = str(rec["id"])
        try:
            raw_events = rec.get("event", [])
            events.append(tuple([_checked_event(obj, rid, ontology) for obj in raw_events]))
            if not rid:
                raise DatasetError("segment id must be nonempty")
        except DatasetError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
        ids.append(rid)
        texts.append(rec.get("text", ""))
    return LabeledRows(tuple(ids), tuple(texts), tuple(events))


def load_transcripts(path: str | Path, *, data: Lines | None = None) -> list[Segment]:
    """Load a transcript file: JSON-lines {"id": string, "text": string}.

    A bad record is a DatasetError naming the file and the line.
    """
    out: list[Segment] = []
    for lineno, rec in read_rows(path, ("text",), data):
        try:
            out.append(Segment(id=str(rec["id"]), text=rec["text"]))
        except DatasetError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return out

