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
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from .model import (
    DatasetError,
    LabeledSegment,
    Lines,
    Segment,
    check_rows,
    iter_json_records,
    normalize,
    read_rows,
)

if TYPE_CHECKING:  # pragma: no cover
    from ._http import Endpoint
    from .llm import LlmProvider
    from .prompts import Template

__all__ = [
    "AgreementTable",
    "FileVerdictProvider",
    "GateError",
    "HttpVerdictProvider",
    "TriggerLexicon",
    "VerdictError",
    "VerdictProvider",
    "VerdictTriple",
    "VotePolicy",
    "agreement_table",
    "build_lexicon",
    "learned_classify",
    "llm_classify",
    "load_verdict_triples",
    "rule_classify",
    "vote",
]

POLICY_NAMES = ("without", "rule", "learned", "llm", "one+", "two+", "all")


class GateError(ValueError):
    """Bad gate configuration or verdict input."""


class VerdictError(RuntimeError):
    """A classifier could not produce a usable verdict."""


@dataclass(frozen=True)
class TriggerLexicon:
    """Deduplicated set of normalized trigger words/phrases from training gold."""

    entries: frozenset[str]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VerdictTriple:
    """Presence verdicts for one segment, one per classifier kind."""

    rule: bool
    learned: bool
    llm: bool

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return (self.rule, self.learned, self.llm)


@dataclass(frozen=True)
class VotePolicy:
    """How the three verdicts combine into a gate decision.

    kind is one of "none" (gate disabled, everything passes), "single"
    (follow one classifier, named by selector), "at_least" (k of three,
    k in {1, 2}), or "all".
    """

    kind: str
    selector: str | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "single", "at_least", "all"):
            raise GateError(f"unknown vote policy kind {self.kind!r}")
        if self.kind == "single" and self.selector not in ("rule", "learned", "llm"):
            raise GateError(f"single-policy selector must name a classifier, got {self.selector!r}")
        if self.kind == "at_least" and self.k not in (1, 2):
            raise GateError(f"at_least policy requires k in {{1, 2}}, got {self.k!r}")

    @classmethod
    def parse(cls, name: str) -> VotePolicy:
        """Parse a policy name as used in configs and ablation tables."""
        key = name.strip().lower()
        if key in ("none", "without"):
            return cls(kind="none")
        if key in ("rule", "learned", "llm"):
            return cls(kind="single", selector=key)
        if key in ("one+", "at_least_1", "at-least-1"):
            return cls(kind="at_least", k=1)
        if key in ("two+", "at_least_2", "at-least-2"):
            return cls(kind="at_least", k=2)
        if key in ("all", "three"):
            return cls(kind="all")
        raise GateError(f"unknown vote policy {name!r}")

    @property
    def name(self) -> str:
        if self.kind == "none":
            return "without"
        if self.kind == "single":
            return self.selector or "?"
        if self.kind == "at_least":
            return "one+" if self.k == 1 else "two+"
        return "all"


def build_lexicon(training: Iterable[LabeledSegment]) -> TriggerLexicon:
    """Collect normalize(trigger) over every gold event in the training split.

    Each distinct trigger string is normalized once: a large support set
    repeats a few hundred triggers across tens of thousands of events.
    """
    triggers = {ev.trigger for ls in training for ev in ls.gold_events}
    entries = {normalize(trigger) for trigger in triggers}
    entries.discard("")
    return TriggerLexicon(entries=frozenset(entries))


def _phrase_pattern(entry: str) -> re.Pattern[str]:
    # Word-boundary containment: "war" must not match "warden", and a
    # multi-word entry must match as a contiguous run.
    return re.compile(rf"(?<!\w){re.escape(entry)}(?!\w)")


def rule_classify(segment: Segment, lexicon: TriggerLexicon) -> bool:
    """True iff some lexicon entry occurs in the normalized text at word boundaries."""
    text = normalize(segment.text)
    if not text:
        return False
    for entry in lexicon.entries:
        # cheap substring pre-check before the boundary-aware search
        if entry in text and _phrase_pattern(entry).search(text):
            return True
    return False


class VerdictProvider(Protocol):
    """Source of learned-classifier presence verdicts."""

    def presence_probabilities(self, segments: Sequence[Segment]) -> list[float]:
        """Probability in [0, 1] that each segment contains an event, in order."""
        ...


def _is_probability(value) -> bool:
    """A JSON number in [0, 1]: not a bool, a string or null. NaN fails the range test."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 1


def _flag(path, rid: str, name: str, value) -> bool:
    """value if it is a JSON boolean; a DatasetError naming the file and the id otherwise."""
    if not isinstance(value, bool):
        raise DatasetError(f"{path}: id {rid!r} has {name} {value!r}, not true or false")
    return value


class FileVerdictProvider:
    """Precomputed verdicts: rows {"id", "present": bool} or {"id", "p": number}."""

    def __init__(self, path: str | Path, *, data: Lines | None = None):
        self.path = Path(path)
        self._by_id: dict[str, float] = {}
        for lineno, rec in read_rows(self.path, data=data):
            rid = str(rec["id"])
            if "present" in rec:
                self._by_id[rid] = float(_flag(self.path, rid, "present", rec["present"]))
            elif "p" in rec:
                if not _is_probability(rec["p"]):
                    raise DatasetError(
                        f"{self.path}: id {rid!r} has probability {rec['p']!r}, "
                        "not a number in [0, 1]"
                    )
                self._by_id[rid] = float(rec["p"])
            else:
                raise DatasetError(f"{self.path}: line {lineno} needs 'present' or 'p'")

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
                if not _is_probability(p):
                    raise VerdictError(
                        f"learned-classifier endpoint returned {p!r} for segment {seg.id!r}, "
                        "not a probability in [0, 1]"
                    )
            return [float(p) for p in probs]

        parts = self.endpoint.post_batches(
            [{"texts": [seg.text for seg in chunk]} for chunk in chunks], parse
        )
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


def llm_classify(
    segment: Segment,
    llm_provider: "LlmProvider",
    ontology,
    *,
    cache=None,
    lenient: bool = False,
    template: Template,
) -> bool:
    """Ask the LLM judge whether the segment contains an event.

    The reply's first alphanumeric token decides (YES/NO). An unparseable
    reply triggers exactly one re-ask; a second unparseable reply raises
    VerdictError unless lenient, in which case the segment counts as
    event-free. template is the parsed presence template.
    """
    # Late imports: llm and prompts build on top of this module's consumers.
    from .llm import FormatFailureError, complete_with_retry
    from .prompts import build_presence_prompt

    bundle = build_presence_prompt(segment, ontology, template=template)
    verdicts: list[bool | None] = []

    def parsed(reply: str) -> bool:
        verdicts.append(parse_yes_no(reply))
        return verdicts[-1] is not None

    try:
        complete_with_retry(llm_provider, bundle, parsed, max_attempts=2, cache=cache)
    except FormatFailureError:
        if lenient:
            return False
        raise VerdictError(
            f"segment {segment.id!r}: unparseable presence verdict after retry"
        ) from None
    return verdicts[-1]


def vote(triple: VerdictTriple, policy: VotePolicy) -> bool:
    """Combine the three verdicts under the policy."""
    if policy.kind == "none":
        return True
    if policy.kind == "single":
        return getattr(triple, policy.selector)  # type: ignore[arg-type]
    count = sum(triple.as_tuple())
    if policy.kind == "at_least":
        return count >= (policy.k or 0)
    return count == 3


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


def agreement_table(verdicts: Iterable[VerdictTriple]) -> AgreementTable:
    """Histogram the verdict triples into the 2x2x2 agreement table."""
    counts = Counter(v.as_tuple() for v in verdicts)
    return AgreementTable(counts=dict(counts))


def load_verdict_triples(path: str | Path) -> dict[str, VerdictTriple]:
    """Load full verdict triples from a gate-stage artifact or a fixture file.

    Accepts records {"id", "rule", "learned", "llm", ...} as JSON lines or one
    JSON array; extra fields (such as "gated_in") are ignored. Duplicate ids
    are rejected.
    """
    records = (
        (lineno, rec)
        for lineno, rec in iter_json_records(path)
        if not (isinstance(rec, dict) and "stage" in rec and "id" not in rec)  # artifact header
    )
    out: dict[str, VerdictTriple] = {}
    for _, rec in check_rows(path, records, ("rule", "learned", "llm")):
        rid = str(rec["id"])
        out[rid] = VerdictTriple(
            *(_flag(path, rid, name, rec[name]) for name in ("rule", "learned", "llm"))
        )
    return out
