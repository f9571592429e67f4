"""Exact-match scoring for trigger and argument classification, plus gate ablation.

Trigger classification (TC) matches (normalized trigger, event type); argument
classification (AC) matches (normalized argument name, role, event type). Both
are micro-averaged over all segments with multiset intersection, so duplicate
tuples count with multiplicity; a set-semantics flag dedupes both sides first.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .gate import VerdictTriple, VotePolicy, vote
from .model import EventMention, normalize

__all__ = [
    "AblationTable",
    "EvaluationError",
    "MetricBlock",
    "ScoreReport",
    "ac_counter",
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


def tc_counter(events: Sequence[EventMention]) -> Counter:
    return Counter((normalize(ev.trigger), ev.event_type) for ev in events)


def ac_counter(events: Sequence[EventMention]) -> Counter:
    return Counter(
        (normalize(arg.name), arg.role, ev.event_type) for ev in events for arg in ev.arguments
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

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "n_pred": self.n_pred,
            "n_gold": self.n_gold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class ScoreReport:
    tc: MetricBlock
    ac: MetricBlock
    gated_out: int = 0
    extraction_failed: int = 0

    def to_dict(self) -> dict:
        return {
            "tc": self.tc.to_dict(),
            "ac": self.ac.to_dict(),
            "gated_out": self.gated_out,
            "extraction_failed": self.extraction_failed,
        }

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


def score(
    predictions: Mapping[str, Sequence[EventMention]],
    gold: Mapping[str, Sequence[EventMention]],
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
    tc_tp = tc_pred = tc_gold = 0
    ac_tp = ac_pred = ac_gold = 0
    for segment_id in gold:
        pred_events = predictions.get(segment_id, ())
        gold_events = gold[segment_id]
        for make in (tc_counter, ac_counter):
            cp = make(pred_events)
            cg = make(gold_events)
            if set_semantics:
                cp = _clamp_to_set(cp)
                cg = _clamp_to_set(cg)
            tp = sum((cp & cg).values())
            if make is tc_counter:
                tc_tp += tp
                tc_pred += sum(cp.values())
                tc_gold += sum(cg.values())
            else:
                ac_tp += tp
                ac_pred += sum(cp.values())
                ac_gold += sum(cg.values())
    return ScoreReport(
        tc=MetricBlock.from_counts(tc_tp, tc_pred, tc_gold),
        ac=MetricBlock.from_counts(ac_tp, ac_pred, ac_gold),
        gated_out=gated_out,
        extraction_failed=extraction_failed,
    )


def filter_by_policy(
    predictions: Mapping[str, Sequence[EventMention]],
    verdicts: Mapping[str, VerdictTriple],
    policy: VotePolicy,
) -> dict[str, Sequence[EventMention]]:
    """Predictions that survive the gate under a policy; others become empty.

    Under the disabled gate every prediction counts. Otherwise a segment with
    predictions but no verdict is an error: the gate could not have run.
    """
    if policy.kind == "none":
        return dict(predictions)
    out: dict[str, Sequence[EventMention]] = {}
    for segment_id, events in predictions.items():
        triple = verdicts.get(segment_id)
        if triple is None:
            raise EvaluationError(f"no gate verdict for predicted segment {segment_id!r}")
        if vote(triple, policy):
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
    gold: Mapping[str, Sequence[EventMention]],
    verdicts: Mapping[str, VerdictTriple],
    predictions: Mapping[str, Sequence[EventMention]],
    policies: Sequence[VotePolicy],
    *,
    set_semantics: bool = False,
) -> AblationTable:
    """Score the predictions that survive each policy's gate."""
    table = AblationTable(policies=tuple(p.name for p in policies))
    for policy in policies:
        kept = filter_by_policy(predictions, verdicts, policy)
        table.gated_in[policy.name] = len(kept)
        table.reports[policy.name] = score(kept, gold, set_semantics=set_semantics)
    return table
