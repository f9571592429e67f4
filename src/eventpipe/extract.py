"""Extraction stages: trigger recognition, argument extraction, JSON post-processing.

Each stage function returns the row its artifact stores (see pipeline). A
predicted trigger is a {"trigger", "type"} dict, an event adds "arguments",
a list of {"name", "role"} dicts.

Replies are free-form model text. Deterministic JSON-tail recovery runs first
and an LLM reformatting call is the fallback, so a well-formed reply costs no
extra provider traffic. Trigger strings are kept verbatim; normalization is
scoring's job.
"""
from __future__ import annotations

import json
import re
from collections import Counter, defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from importlib import resources

from .llm import StageModel
from .model import LabeledSegment, Ontology, Segment, normalize
from .prompts import build_argument_prompt, build_format_prompt, build_trigger_prompt
from .retrieval import Hits, SupportIndex, same_type_rows

__all__ = [
    "PostprocessEntry",
    "extract_arguments",
    "extract_triggers",
    "parse_trigger_reply",
    "postprocess",
    "recover_json_tail",
    "repair_arguments",
    "retrieve_examples",
]

_NO_EVENT = re.compile(r"\bno\s+(?:events?|triggers?)\b", re.IGNORECASE)
_NO_ARGUMENT = re.compile(r"\bno\s+arguments?\b", re.IGNORECASE)


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


# An opener followed by what can start its first member: raw_decode fails at
# every "[" or "{" these do not match. One pattern per opener, so that each
# starts with a literal that re's search skips to; a union of the two has no
# literal prefix and tests every position. Each lookahead, which the rest of
# its pattern implies, rejects a stray opener such as "[word" in one set test.
_VALUE_STARTS = (
    re.compile(
        r'\[(?=[ \t\n\r\]"\[{0-9tfnNI-])'
        r'[ \t\n\r]*(?:[\]"\[{0-9-]|true|false|null|NaN|Infinity)'
    ),
    re.compile(r'\{(?=[ \t\n\r"}])[ \t\n\r]*["}]'),
)
_DECODE_WINDOW = 2048
_LOOKAHEAD_MARGIN = 16
_MAX_DEPTH = 256  # deepest nesting of a recovered value; an event list nests about 4 deep
# A bracket, or a whole string (an unterminated one runs to the end of the scan).
_STRUCTURE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', re.DOTALL)


def _next_value_start(text: str, resume: int, pending: list[int]) -> int:
    """The first position at or after resume where a _VALUE_STARTS pattern matches, else len(text).

    pending holds each pattern's last match position (-1 before the first
    search) and is updated in place. A pattern is searched again only once
    resume has passed its pending match, so over calls with a rising resume
    each pattern tries every position of text at most once.
    """
    for k, start in enumerate(pending):
        if start < resume:
            match = _VALUE_STARTS[k].search(text, resume)
            pending[k] = len(text) if match is None else match.start()
    return min(pending)


def _flag_too_deep(text: str, i: int, j: int, skip: set[int], failed: bool = False) -> None:
    """Add to skip the openers that text[i:j] proves cannot start a recovered value.

    Scans brackets and strings from the opener at i as a decoder starting
    there reads them. A decoder starting at any opener this scan reads outside
    a string reads the same tokens from there on, so one pass judges all of
    them: an opener with more than _MAX_DEPTH containers open from it onwards
    starts a value that is invalid or nests deeper than the cap, non-JSON
    either way. A long run of nested openers is flagged in one pass.

    With failed, a decode from i failed at j. Every opener still open there
    is flagged too: a decoder started at it reads the same tokens up to j and
    fails there as well.
    """
    if not failed and text.count("[", i, j) + text.count("{", i, j) <= _MAX_DEPTH:
        return
    stack: list[int] = []
    flagged = 0  # stack[:flagged] are in skip
    for token in _STRUCTURE.finditer(text, i, j):
        char = text[token.start()]
        if char in "[{":
            stack.append(token.start())
            if len(stack) - flagged > _MAX_DEPTH:
                skip.add(stack[flagged])
                flagged += 1
        elif char in "]}":
            stack.pop()
            if not stack:
                return
            flagged = min(flagged, len(stack))
    if failed:
        skip.update(stack)


def _raw_decode(decoder: json.JSONDecoder, chunk: str):
    """decoder.raw_decode(chunk), finished on a fresh thread if the caller's stack runs out.

    A value within _MAX_DEPTH needs a few hundred frames at most, so whether
    it decodes does not depend on how deep the caller already is.
    """
    try:
        return decoder.raw_decode(chunk)
    except RecursionError:
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(decoder.raw_decode, chunk).result()


def _last_json_value(text: str):
    """The last top-level balanced JSON array or object in text, else None.

    Scanning left to right, the value decoded at an opener is kept and the
    scan resumes after it; an opener that does not decode, or whose value
    nests deeper than _MAX_DEPTH, is skipped. Four things keep the cost
    linear in len(text), however the text nests, while the result stays
    exactly that of json's raw_decode at every opener, under that cap:

    - Value-start filter: only openers matched by a _VALUE_STARTS pattern
      are decoded. A match is a necessary condition for raw_decode to
      succeed, so every skipped opener would have failed. The next opener is
      the earlier of the two patterns' pending matches at or after the resume
      point (_next_value_start), so each pattern scans the text once.
    - Windowed decode: an opener at i is decoded in text[i:j] + NUL, with
      j = min(i + W, len(text)) and W starting at _DECODE_WINDOW. NUL ends
      every scanner state (it is not JSON, and strict decoding rejects it
      inside strings), so the decoder never reads past j and a failed decode
      costs O(W), not the O(i) of a JSONDecodeError built over the whole
      text. A success closed inside the window and is exact. A failure
      reported more than _LOOKAHEAD_MARGIN characters before the NUL is exact
      too: the decoder reads past the position it reports by at most the
      length of "-Infinity" or of a "\\uXXXX\\uXXXX" surrogate pair, so it
      read nothing the window cut off. Any later failure doubles W, and once
      j reaches the end of the text the window decodes as the whole text does.
    - Depth cap: a window with more than _MAX_DEPTH openers is first scanned
      by _flag_too_deep, which flags every opener it proves too deep, a whole
      nested run at once; flagged openers are skipped without decoding. When
      the opener being decoded is flagged, the scan goes on from it to the
      end of the text, so the openers it holds are judged in that one pass,
      not each in windows of its own. The cap, not the recursion limit,
      decides, so the result does not depend on the caller's stack or thread
      (see _raw_decode).
    - Shared failures: a decode from i that fails for good at p is followed
      by one _flag_too_deep scan of text[i:p], which flags the openers still
      open at p; each would fail at p too. So blocks nested in one another
      that never close cost one decode to the end of the text, not one each.

    A ValueError that is not a decode error (the int-digits limit) marks the
    opener as non-JSON.
    """
    decoder = json.JSONDecoder()
    best = None
    n = len(text)
    skip: set[int] = set()
    pending = [-1] * len(_VALUE_STARTS)
    resume = 0
    while (i := _next_value_start(text, resume, pending)) < n:
        resume = i + 1
        width = _DECODE_WINDOW
        while i not in skip:
            j = min(i + width, n)
            _flag_too_deep(text, i, j, skip)
            if i in skip:
                if j < n:
                    _flag_too_deep(text, i, n, skip)
                break
            try:
                best, end = _raw_decode(decoder, text[i:j] + "\x00")
                resume = i + end
            except json.JSONDecodeError as exc:
                if j < n and exc.pos >= (j - i) - _LOOKAHEAD_MARGIN:
                    width *= 2
                    continue
                _flag_too_deep(text, i, i + exc.pos, skip, failed=True)
            except (ValueError, RecursionError):
                pass
            break
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


def parse_trigger_reply(raw: str, ontology: Ontology) -> list[dict] | None:
    """A trigger-stage reply's {"trigger", "type"} predictions; None means unparseable (retry).

    An explicit no-event answer with no JSON counts as a valid empty result.
    Any event type outside the ontology rejects the whole reply.
    """
    canonical = recover_json_tail(raw)
    if canonical is None:
        if _NO_EVENT.search(raw):
            return []
        return None
    if any(entry["type"] not in ontology.type_set for entry in canonical):
        return None
    return [{"trigger": entry["trigger"], "type": entry["type"]} for entry in canonical]


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
    triggers: Sequence[dict],
    ontology: Ontology,
    *,
    strict: bool,
) -> list[dict] | None:
    """Assign canonical reply entries to the predicted triggers, as one event per trigger.

    Entries match a trigger by (normalized trigger, type); unmatched entries
    are dropped, and triggers with no entry keep an empty argument list. With
    strict=True a disallowed role rejects the reply; otherwise the offending
    argument is dropped.
    """
    keys = [(normalize(t["trigger"]), t["type"]) for t in triggers]
    occurrences = Counter(keys)
    queues: defaultdict[tuple[str, str], deque[list[dict]]] = defaultdict(deque)
    for entry in canonical or []:
        queues[(normalize(entry["trigger"]), entry["type"])].append(entry["arguments"])
    events: list[dict] = []
    for trig, key in zip(triggers, keys):
        queue = queues[key]
        if occurrences[key] == 1:
            # One predicted occurrence: merge every matching entry's arguments,
            # since models often emit one object per argument.
            raw_args = [a for entry_args in queue for a in entry_args]
            queue.clear()
        else:
            raw_args = queue.popleft() if queue else []
        args: list[dict] = []
        for a in raw_args:
            role = _canonical_role(a["role"], trig["type"], ontology)
            if role is None or not normalize(a["name"]):
                if strict:
                    return None
                continue
            args.append({"name": a["name"], "role": role})
        events.append({"trigger": trig["trigger"], "type": trig["type"], "arguments": args})
    return events


def _argument_events(
    raw: str, canonical: list[dict] | None, triggers: Sequence[dict], ontology: Ontology
) -> list[dict] | None:
    """Strictly match raw's recovered records; a no-argument answer without JSON is empty."""
    if canonical is None and _NO_ARGUMENT.search(raw):
        canonical = []
    if canonical is None:
        return None
    return _match_entries_to_triggers(canonical, triggers, ontology, strict=True)


# --- retrieval plumbing -------------------------------------------------------


def retrieve_examples(
    index: SupportIndex, hits: Hits, types: Iterable[str] | None = None
) -> list[LabeledSegment]:
    """One query's support examples: its top k, or the top k among examples of `types`.

    The same-type top k comes from the hits' per-type shortlists (see
    same_type_rows).
    """
    rows = hits.rows if types is None else same_type_rows(index, hits, types)
    return [index.examples[row] for row in rows]


# --- stages -------------------------------------------------------------------


def _row(segment: Segment, examples: Sequence[LabeledSegment], completion, **events) -> dict:
    """A trigger or argument row: the segment's id, its examples' ids, its events and its reply."""
    return {
        "id": segment.id,
        "examples": [ex.id for ex in examples],
        **events,
        "raw": completion.text,
        "attempts": completion.attempts,
        "failed": completion.value is None,
    }


def extract_triggers(
    segment: Segment,
    examples: Sequence[LabeledSegment],
    ontology: Ontology,
    model: StageModel,
) -> dict:
    """The triggers row of one gated-in segment, recognized with its retrieved few-shot examples.

    A reply rejected on every attempt gives failed=True and no predictions.
    """
    bundle = build_trigger_prompt(segment, examples, ontology, template=model.template)
    completion = model.ask(bundle, lambda text: parse_trigger_reply(text, ontology))
    return _row(segment, examples, completion, predictions=completion.value or [])


def extract_arguments(
    segment: Segment,
    triggers: Sequence[dict],
    examples: Sequence[LabeledSegment],
    ontology: Ontology,
    model: StageModel,
) -> tuple[dict, list[dict] | None]:
    """One segment's arguments row for its predicted triggers, and the records its reply held.

    Format failure after retries degrades to the triggers with empty argument
    lists (failed=True) rather than dropping them. The records are those
    recovered from the row's reply (None: no usable JSON), so repair never
    parses the reply again.
    """
    if not triggers:
        raise ValueError("extract_arguments requires at least one predicted trigger")
    predicted_types = [t["type"] for t in triggers]
    bundle = build_argument_prompt(
        segment, predicted_types, examples, ontology, template=model.template
    )
    recovered = None

    def parse(text: str) -> list[dict] | None:
        nonlocal recovered
        recovered = recover_json_tail(text)
        return _argument_events(text, recovered, triggers, ontology)

    completion = model.ask(bundle, parse)
    events = completion.value
    if events is None:
        events = [{"trigger": t["trigger"], "type": t["type"], "arguments": []} for t in triggers]
    return _row(segment, examples, completion, events=events), recovered


# --- post-processing ----------------------------------------------------------


@dataclass(frozen=True)
class PostprocessEntry:
    """One segment's final events, and how the repair that produced them went."""

    segment_id: str
    events: list[dict]
    formatting_attempts: int
    excluded: bool
    degraded: bool


def postprocess(
    raws: Iterable[tuple[str, str]],
    ontology: Ontology,
    model: StageModel | None,
) -> list[PostprocessEntry]:
    """Turn standalone (segment id, raw reply) pairs into validated events.

    Deterministic JSON-tail recovery is tried first; only when it fails (or
    yields ontology-invalid records) is the reformatting prompt sent. A reply
    that stays unusable excludes its segment.
    """

    def validated(canonical):
        if canonical is None or any(e["type"] not in ontology.type_set for e in canonical):
            return None
        # Each record is matched, strictly, to itself as the predicted trigger.
        return _match_entries_to_triggers(canonical, canonical, ontology, strict=True)

    entries = []
    for segment_id, raw in raws:
        events, attempts = validated(recover_json_tail(raw)), 0
        if events is None:
            events, attempts = _format_repair(segment_id, raw, validated, model)
        entries.append(PostprocessEntry(segment_id, events or [], attempts, events is None, False))
    return entries


def repair_arguments(
    row: dict,
    recovered: list[dict] | None,
    triggers: Sequence[dict],
    ontology: Ontology,
    model: StageModel | None,
) -> PostprocessEntry:
    """Final events for one segment's arguments row and the records its reply held.

    An accepted reply's events are returned as parsed. A failed reply's
    recovered records are matched to the committed triggers non-strictly:
    disallowed roles and unmatched entries are dropped. Only a failed reply
    with no recoverable JSON (recovered is None) goes through the formatting
    prompt; if that fails as well, the segment is degraded to its triggers
    with empty argument lists.
    """
    if not row["failed"]:
        return PostprocessEntry(row["id"], row["events"], 0, False, False)
    canonical, attempts = recovered, 0
    if canonical is None:
        canonical, attempts = _format_repair(row["id"], row["raw"], lambda c: c, model)
    events = _match_entries_to_triggers(canonical, triggers, ontology, strict=False)
    return PostprocessEntry(row["id"], events, attempts, False, canonical is None)


def _format_repair(segment_id: str, raw: str, convert, model: StageModel | None):
    """(convert(records) of the first formatting reply it accepts, or None; attempts).

    convert rejects a reply by returning None. Blank text, or no model,
    sends nothing and recovers nothing.
    """
    if model is None or not raw.strip():
        return None, 0
    bundle = build_format_prompt(raw, segment_id, template=model.template)
    completion = model.ask(bundle, lambda text: convert(recover_json_tail(text)))
    return completion.value, completion.attempts
