"""Event-presence gating: three classifier kinds plus a voting policy.

A segment is "gated in" when the configured vote over the three presence
verdicts (rule lexicon, learned classifier, LLM judge) says it likely contains
an event. Gated-out segments never reach the extraction stages.

The learned classifier is consumed through a verdict-provider contract
(precomputed verdict file or remote scoring endpoint); training it is not this
package's job.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from ._http import Endpoint
from .llm import StageModel
from .model import (
    FIELD_TYPES,
    DatasetError,
    LabeledRows,
    Lines,
    Segment,
    check_rows,
    iter_json_records,
    normalize,
    read_rows,
)
from .prompts import build_presence_prompt

__all__ = [
    "AgreementTable",
    "FileVerdictProvider",
    "GateError",
    "HttpVerdictProvider",
    "VerdictError",
    "VerdictProvider",
    "agreement_table",
    "build_lexicon",
    "check_policy",
    "learned_classify",
    "llm_classify",
    "load_verdict_triples",
    "rule_classify",
    "vote",
]

_JUDGES = ("rule", "learned", "llm")

# Each gate policy: the verdicts it reads, and how many of them must say yes.
POLICIES: dict[str, tuple[tuple[str, ...], int]] = {
    "without": ((), 0),
    "rule": (("rule",), 1),
    "learned": (("learned",), 1),
    "llm": (("llm",), 1),
    "one+": (_JUDGES, 1),
    "two+": (_JUDGES, 2),
    "all": (_JUDGES, 3),
}


class GateError(ValueError):
    """Bad gate configuration or verdict input."""


class VerdictError(RuntimeError):
    """A classifier could not produce a usable verdict."""


def check_policy(name: str) -> str:
    """name if it is a gate policy; a GateError listing the policies otherwise."""
    if name not in POLICIES:
        raise GateError(f"unknown gate policy {name!r}; expected one of: {', '.join(POLICIES)}")
    return name


def build_lexicon(training: LabeledRows) -> frozenset[str]:
    """Collect normalize(trigger) over every gold event in the training split.

    Each distinct trigger string is normalized once: a large support set
    repeats a few hundred triggers across tens of thousands of events.
    """
    triggers = {event[0] for events in training.events for event in events}
    entries = {normalize(trigger) for trigger in triggers}
    entries.discard("")
    return frozenset(entries)


def _phrase_pattern(entry: str) -> re.Pattern[str]:
    # Word-boundary containment: "war" must not match "warden", and a
    # multi-word entry must match as a contiguous run.
    return re.compile(rf"(?<!\w){re.escape(entry)}(?!\w)")


def rule_classify(segment: Segment, lexicon: frozenset[str]) -> bool:
    """True iff some lexicon entry occurs in the normalized text at word boundaries."""
    text = normalize(segment.text)
    if not text:
        return False
    for entry in lexicon:
        # cheap substring pre-check before the boundary-aware search
        if entry in text and _phrase_pattern(entry).search(text):
            return True
    return False


class VerdictProvider(Protocol):
    """Source of learned-classifier presence verdicts."""

    def presence_probabilities(self, segments: Sequence[Segment]) -> list[float]:
        """Probability in [0, 1] that each segment contains an event, in order."""
        ...


class FileVerdictProvider:
    """Precomputed verdicts: rows {"id", "present": bool} or {"id", "p": number}."""

    def __init__(self, path: str | Path, *, data: Lines | None = None):
        self.path = Path(path)
        self._by_id: dict[str, float] = {}
        for lineno, rec in read_rows(self.path, data=data, optional=("present", "p")):
            rid = str(rec["id"])
            # check_rows has rejected a null `present` or `p`.
            verdict = rec.get("present", rec.get("p"))
            if verdict is None:
                message = f"record {rid!r}: needs 'present' or 'p'"
                raise DatasetError(f"{self.path}: line {lineno}: {message}")
            self._by_id[rid] = float(verdict)

    def presence_probabilities(self, segments: Sequence[Segment]) -> list[float]:
        try:
            return [self._by_id[seg.id] for seg in segments]
        except KeyError as exc:
            raise VerdictError(
                f"verdict file {self.path} has no entry for segment {exc.args[0]!r}"
            ) from None


class HttpVerdictProvider:
    """Remote scoring endpoint: POST {"texts": [...]} -> {"probabilities": [...]}.

    Segments are posted batch_size texts per request through the Endpoint,
    and the probabilities come back in segment order.
    """

    def __init__(self, endpoint: Endpoint, batch_size: int):
        self.endpoint = endpoint
        self.batch_size = batch_size

    def presence_probabilities(self, segments: Sequence[Segment]) -> list[float]:
        chunks = [
            segments[i : i + self.batch_size] for i in range(0, len(segments), self.batch_size)
        ]

        is_probability, _ = FIELD_TYPES["p"]

        def parse(i: int, payload) -> list[float]:
            chunk = chunks[i]
            probs = payload.get("probabilities") if isinstance(payload, dict) else None
            if not isinstance(probs, list) or len(probs) != len(chunk):
                raise VerdictError(
                    f"learned-classifier endpoint returned "
                    f"{len(probs) if isinstance(probs, list) else 'no'} probabilities for "
                    f"{len(chunk)} segments ({chunk[0].id!r} to {chunk[-1].id!r})"
                )
            for seg, p in zip(chunk, probs):
                if not is_probability(p):
                    raise VerdictError(
                        f"learned-classifier endpoint returned {p!r} for segment {seg.id!r}, "
                        "not a probability in [0, 1]"
                    )
            return [float(p) for p in probs]

        payloads = ({"texts": [seg.text for seg in chunk]} for chunk in chunks)
        parts = self.endpoint.stream(payloads, parse)
        return [p for part in parts for p in part]


def learned_classify(
    segments: Sequence[Segment], provider: VerdictProvider, *, threshold: float = 0.5
) -> list[bool]:
    """Learned-classifier verdicts, in segment order: probability >= threshold."""
    return [p >= threshold for p in provider.presence_probabilities(segments)]


_FIRST_TOKEN = re.compile(r"[A-Za-z0-9]+")


def parse_yes_no(reply: str) -> bool | None:
    """Map a reply to a verdict by its first alphanumeric token; None if neither."""
    m = _FIRST_TOKEN.search(reply)
    if m is None:
        return None
    token = m.group(0).upper()
    if token == "YES":
        return True
    if token == "NO":
        return False
    return None


def llm_classify(segment: Segment, model: StageModel, ontology, *, lenient: bool = False) -> bool:
    """Ask the LLM judge whether the segment contains an event.

    The reply's first alphanumeric token decides (YES/NO). An unparseable
    reply is asked again, up to the model's max_attempts; one still
    unparseable then raises VerdictError unless lenient, in which case the
    segment counts as event-free.
    """
    bundle = build_presence_prompt(segment, ontology, template=model.template)
    verdict = model.ask(bundle, parse_yes_no).value
    if verdict is None and not lenient:
        raise VerdictError(f"segment {segment.id!r}: unparseable presence verdict after retry")
    return bool(verdict)


def vote(verdicts: Mapping[str, bool], policy: str) -> bool:
    """Combine a segment's "rule", "learned" and "llm" verdicts under a policy (see POLICIES)."""
    judges, needed = POLICIES[check_policy(policy)]
    return sum(verdicts[judge] for judge in judges) >= needed


@dataclass(frozen=True)
class AgreementTable:
    """8-cell histogram over (rule, learned, llm) verdict triples."""

    counts: dict[tuple[bool, bool, bool], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def cell(self, rule: bool, learned: bool, llm: bool) -> int:
        return self.counts.get((rule, learned, llm), 0)

    def render(self) -> str:
        """Row/column layout: (rule, learned) rows crossed with llm columns."""
        lines = [f"{'rule':<6}{'learned':<9}{'llm=no':>8}{'llm=yes':>9}"]
        for r in (False, True):
            for b in (False, True):
                lines.append(
                    f"{_yn(r):<6}{_yn(b):<9}{self.cell(r, b, False):>8}{self.cell(r, b, True):>9}"
                )
        lines.append(f"total segments: {self.total}")
        return "\n".join(lines)


def _yn(v: bool) -> str:
    return "yes" if v else "no"


def agreement_table(verdicts: Iterable[Mapping[str, bool]]) -> AgreementTable:
    """Histogram the segments' (rule, learned, llm) verdicts into the 2x2x2 table."""
    counts = Counter(tuple(v[judge] for judge in _JUDGES) for v in verdicts)
    return AgreementTable(counts=dict(counts))


def load_verdict_triples(path: str | Path) -> dict[str, dict[str, bool]]:
    """Each segment's {"rule", "learned", "llm"} verdicts, from a gate artifact or a fixture file.

    Accepts records {"id", "rule", "learned", "llm", ...} as JSON lines or one
    JSON array; extra fields (such as "gated_in") are ignored. A first record
    with "stage" and no "id" is an artifact header and is skipped; any other
    record without the fields is an input error. Duplicate ids are rejected.
    """
    records = (
        (lineno, rec)
        for k, (lineno, rec) in enumerate(iter_json_records(path))
        if k or not (isinstance(rec, dict) and "stage" in rec and "id" not in rec)
    )
    return {
        str(rec["id"]): {name: rec[name] for name in _JUDGES}
        for _, rec in check_rows(path, records, _JUDGES)
    }
