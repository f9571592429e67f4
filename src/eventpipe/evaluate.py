"""Exact-match scoring for trigger and argument classification, plus gate ablation.

Trigger classification (TC) matches (normalized trigger, event type); argument
classification (AC) matches (normalized argument name, role, event type). Both
are micro-averaged over all segments with multiset intersection, so duplicate
tuples count with multiplicity; a set-semantics flag dedupes both sides first.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .gate import vote
from .model import LabeledSegment, normalize

__all__ = [
    "AblationTable",
    "EvaluationError",
    "MetricBlock",
    "ScoreReport",
    "ac_counter",
    "events_by_id",
    "filter_by_policy",
    "prf",
    "run_ablation",
    "score",
    "tc_counter",
]


class EvaluationError(ValueError):
    """Scoring inputs violate the evaluation contract."""


def prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    """Micro precision, recall, F1 as fractions in [0, 1]."""
    if tp < 0 or n_pred < 0 or n_gold < 0:
        raise EvaluationError(f"negative count: tp={tp} n_pred={n_pred} n_gold={n_gold}")
    if tp > min(n_pred, n_gold):
        raise EvaluationError(
            f"tp={tp} exceeds min(n_pred={n_pred}, n_gold={n_gold})"
        )
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# An event is a {"trigger", "type", "arguments"} dict (see model.check_event).
Events = Sequence[dict]


def events_by_id(segments: Iterable[LabeledSegment]) -> dict[str, Events]:
    """Each segment's event list, by id: gold, or predictions loaded as gold."""
    return {ls.id: ls.gold_events for ls in segments}


def tc_counter(events: Events) -> Counter:
    return Counter((normalize(ev["trigger"]), ev["type"]) for ev in events)


def ac_counter(events: Events) -> Counter:
    # A replayed final row is scored as read: check_event lets its argument
    # list be absent and its names and roles be any JSON value, read as str().
    return Counter(
        (normalize(str(arg["name"])), str(arg["role"]), ev["type"])
        for ev in events
        for arg in ev.get("arguments", ())
    )


@dataclass(frozen=True)
class MetricBlock:
    tp: int
    n_pred: int
    n_gold: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, n_pred: int, n_gold: int) -> "MetricBlock":
        p, r, f = prf(tp, n_pred, n_gold)
        return cls(tp=tp, n_pred=n_pred, n_gold=n_gold, precision=p, recall=r, f1=f)


@dataclass(frozen=True)
class ScoreReport:
    tc: MetricBlock
    ac: MetricBlock
    gated_out: int = 0
    extraction_failed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        def row(label: str, block: MetricBlock) -> str:
            return (
                f"{label:<4} tp={block.tp:<6} n_pred={block.n_pred:<6} n_gold={block.n_gold:<6} "
                f"P={block.precision * 100:6.1f}  R={block.recall * 100:6.1f}  F1={block.f1 * 100:6.1f}"
            )

        lines = [
            "task                                            P(%)    R(%)   F1(%)",
            row("TC", self.tc),
            row("AC", self.ac),
            f"gated_out: {self.gated_out}  extraction_failed: {self.extraction_failed}",
        ]
        return "\n".join(lines)


def _clamp_to_set(counter: Counter) -> Counter:
    return Counter(dict.fromkeys(counter, 1))


def _task_block(
    make: Callable[[Events], Counter],
    predictions: Mapping[str, Events],
    gold: Mapping[str, Events],
    set_semantics: bool,
) -> MetricBlock:
    """One task's micro-averaged counts over the gold segments, tuples counted by make."""
    tp = n_pred = n_gold = 0
    for segment_id, gold_events in gold.items():
        cp = make(predictions.get(segment_id, ()))
        cg = make(gold_events)
        if set_semantics:
            cp = _clamp_to_set(cp)
            cg = _clamp_to_set(cg)
        tp += sum((cp & cg).values())
        n_pred += sum(cp.values())
        n_gold += sum(cg.values())
    return MetricBlock.from_counts(tp, n_pred, n_gold)


def score(
    predictions: Mapping[str, Events],
    gold: Mapping[str, Events],
    *,
    set_semantics: bool = False,
    gated_out: int = 0,
    extraction_failed: int = 0,
) -> ScoreReport:
    """Micro-averaged TC and AC scores of predictions against gold.

    Gold segments with no prediction entry count as empty predictions; a
    prediction id absent from gold is an error.
    """
    unknown = sorted(set(predictions) - set(gold))
    if unknown:
        raise EvaluationError(f"prediction ids not present in gold: {unknown[:5]}")
    return ScoreReport(
        tc=_task_block(tc_counter, predictions, gold, set_semantics),
        ac=_task_block(ac_counter, predictions, gold, set_semantics),
        gated_out=gated_out,
        extraction_failed=extraction_failed,
    )


def filter_by_policy(
    predictions: Mapping[str, Events],
    verdicts: Mapping[str, Mapping[str, bool]],
    policy: str,
) -> dict[str, Events]:
    """Predictions that survive the gate under a named policy; others become empty.

    Under the disabled gate every prediction counts. Otherwise a segment with
    predictions but no verdict is an error: the gate could not have run.
    """
    if policy == "without":
        return dict(predictions)
    out: dict[str, Events] = {}
    for segment_id, events in predictions.items():
        verdict = verdicts.get(segment_id)
        if verdict is None:
            raise EvaluationError(f"no gate verdict for predicted segment {segment_id!r}")
        if vote(verdict, policy):
            out[segment_id] = events
    return out


@dataclass
class AblationTable:
    """Per-policy scores over a fixed prediction set, plus gated-in counts."""

    policies: tuple[str, ...]
    reports: dict[str, ScoreReport] = field(default_factory=dict)
    gated_in: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "policies": list(self.policies),
            "by_policy": {name: report.to_dict() for name, report in self.reports.items()},
            "gated_in": dict(self.gated_in),
        }

    def render(self) -> str:
        header = f"{'policy':<10} {'TC F1(%)':>9} {'AC F1(%)':>9} {'gated_in':>9}"
        lines = [header]
        for name in self.policies:
            report = self.reports[name]
            lines.append(
                f"{name:<10} {report.tc.f1 * 100:>9.1f} {report.ac.f1 * 100:>9.1f} "
                f"{self.gated_in[name]:>9}"
            )
        nested = [p for p in ("all", "two+", "one+") if p in self.gated_in]
        if nested:
            footer = " <= ".join(f"{p}:{self.gated_in[p]}" for p in nested)
            lines.append(f"gated-in nesting: {footer}")
        return "\n".join(lines)


def run_ablation(
    gold: Mapping[str, Events],
    verdicts: Mapping[str, Mapping[str, bool]],
    predictions: Mapping[str, Events],
    policies: Sequence[str],
    *,
    set_semantics: bool = False,
) -> AblationTable:
    """Score the predictions that survive each named policy's gate."""
    table = AblationTable(policies=tuple(policies))
    for policy in policies:
        kept = filter_by_policy(predictions, verdicts, policy)
        table.gated_in[policy] = len(kept)
        table.reports[policy] = score(kept, gold, set_semantics=set_semantics)
    return table
