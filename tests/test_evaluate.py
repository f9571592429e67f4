"""Scoring metrics, policy filtering, and the gate ablation table."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventpipe.evaluate import (
    AblationTable,
    EvaluationError,
    MetricBlock,
    ScoreReport,
    ac_counter,
    filter_by_policy,
    prf,
    run_ablation,
    score,
    tc_counter,
)
from eventpipe.model import normalize

# ---------------------------------------------------------------------------
# independent reference matcher (also used by the acceptance suite)

EVENT_TYPES = ["Attack", "Meet", "Die", "Transport", "Elect"]
ROLES = ["Place", "Target", "Victim", "Agent", "Person"]
TRIGGERS = ["war", "met", "died", "deploy", "vote", "shot down"]
NAMES = ["rebels", "village", "soldiers", "mayor", "crowd"]


def greedy_remove_match(pred_tuples: list, gold_tuples: list) -> int:
    """Maximum number of exact-equality pairings, by scan-and-remove."""
    remaining = list(gold_tuples)
    matched = 0
    for candidate in pred_tuples:
        for i, g in enumerate(remaining):
            if g == candidate:
                del remaining[i]
                matched += 1
                break
    return matched


def reference_counts(pred_events, gold_events, *, set_semantics=False):
    """(tc tp/n_pred/n_gold, ac tp/n_pred/n_gold) computed without Counter."""

    def tc_tuples(events):
        return [(normalize(ev["trigger"]), ev["type"]) for ev in events]

    def ac_tuples(events):
        return [
            (normalize(a["name"]), a["role"], ev["type"]) for ev in events for a in ev["arguments"]
        ]

    def dedupe(tuples):
        seen, out = set(), []
        for t in tuples:
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out

    blocks = []
    for make in (tc_tuples, ac_tuples):
        p, g = make(pred_events), make(gold_events)
        if set_semantics:
            p, g = dedupe(p), dedupe(g)
        blocks.append((greedy_remove_match(p, g), len(p), len(g)))
    return tuple(blocks)


def random_events(rng: random.Random, max_events=4, max_args=3):
    events = []
    for _ in range(rng.randint(0, max_events)):
        args = [
            {"name": rng.choice(NAMES), "role": rng.choice(ROLES)}
            for _ in range(rng.randint(0, max_args))
        ]
        events.append(
            {"trigger": rng.choice(TRIGGERS), "type": rng.choice(EVENT_TYPES), "arguments": args}
        )
    return events


def random_instance(rng: random.Random, max_segments=5, **kwargs):
    n = rng.randint(1, max_segments)
    gold = {f"seg-{i}": random_events(rng, **kwargs) for i in range(n)}
    predictions = {}
    for i in range(n):
        if rng.random() < 0.8:
            # Bias toward overlap so true positives actually occur.
            base = list(gold[f"seg-{i}"])
            rng.shuffle(base)
            keep = base[: rng.randint(0, len(base))]
            predictions[f"seg-{i}"] = keep + random_events(rng, **kwargs)
    return predictions, gold


def assert_matches_reference(predictions, gold, *, set_semantics=False):
    report = score(predictions, gold, set_semantics=set_semantics)
    tc = [0, 0, 0]
    ac = [0, 0, 0]
    for segment_id in gold:
        blocks = reference_counts(
            predictions.get(segment_id, ()), gold[segment_id], set_semantics=set_semantics
        )
        for total, block in zip((tc, ac), blocks):
            for j in range(3):
                total[j] += block[j]
    assert (report.tc.tp, report.tc.n_pred, report.tc.n_gold) == tuple(tc)
    assert (report.ac.tp, report.ac.n_pred, report.ac.n_gold) == tuple(ac)


# ---------------------------------------------------------------------------


class TestPrf:
    def test_half_overlap(self):
        assert prf(1, 2, 2) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        assert prf(3, 3, 3) == (1.0, 1.0, 1.0)

    def test_zero_denominators_give_zero(self):
        assert prf(0, 0, 0) == (0.0, 0.0, 0.0)
        assert prf(0, 5, 0) == (0.0, 0.0, 0.0)
        assert prf(0, 0, 5) == (0.0, 0.0, 0.0)

    def test_asymmetric(self):
        p, r, f1 = prf(2, 4, 5)
        assert p == 0.5
        assert r == 0.4
        assert f1 == pytest.approx(2 * 0.5 * 0.4 / 0.9)

    def test_negative_counts_rejected(self):
        with pytest.raises(EvaluationError, match="negative"):
            prf(-1, 2, 2)
        with pytest.raises(EvaluationError):
            prf(0, -1, 0)

    def test_tp_cannot_exceed_either_total(self):
        with pytest.raises(EvaluationError, match="exceeds"):
            prf(3, 2, 5)
        with pytest.raises(EvaluationError):
            prf(3, 5, 2)

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_outputs_stay_in_unit_interval(self, tp, extra_pred, extra_gold):
        p, r, f1 = prf(tp, tp + extra_pred, tp + extra_gold)
        for value in (p, r, f1):
            assert 0.0 <= value <= 1.0
        # Harmonic mean sits between min and max, modulo float rounding.
        assert f1 <= max(p, r) + 1e-12


class TestCounters:
    def test_tc_normalizes_trigger_but_not_type(self):
        events = [
            {"trigger": "Shot  DOWN", "type": "Attack", "arguments": []},
            {"trigger": "shot down", "type": "Attack", "arguments": []},
        ]
        assert tc_counter(events) == {("shot down", "Attack"): 2}

    def test_ac_keeps_role_exact(self):
        events = [
            {
                "trigger": "war",
                "type": "Attack",
                "arguments": [{"name": "The  Rebels", "role": "Attacker"}],
            }
        ]
        assert ac_counter(events) == {("the rebels", "Attacker", "Attack"): 1}

    def test_events_count_as_check_event_reads_them(self):
        # A replayed final row is scored as read: an absent argument list is
        # empty, and a name or role that is not a string counts as its str().
        events = [
            {"trigger": "war", "type": "Attack"},
            {"trigger": "war", "type": "Attack", "arguments": [{"name": 5, "role": "Target"}]},
        ]
        assert tc_counter(events) == {("war", "Attack"): 2}
        assert ac_counter(events) == {("5", "Target", "Attack"): 1}

    def test_empty(self):
        assert tc_counter([]) == {}
        assert ac_counter([]) == {}


class TestScore:
    def _ev(self, trigger, etype, *args):
        return {
            "trigger": trigger,
            "type": etype,
            "arguments": [{"name": n, "role": r} for n, r in args],
        }

    def test_exact_match_scores_perfectly(self):
        gold = {"s1": [self._ev("war", "Attack", ("rebels", "Attacker"))]}
        pred = {"s1": [self._ev("war", "Attack", ("rebels", "Attacker"))]}
        report = score(pred, gold)
        assert report.tc.f1 == 1.0
        assert report.ac.f1 == 1.0

    def test_multiset_multiplicity(self):
        # Two identical gold tuples need two predictions to fully match.
        gold = {"s1": [self._ev("war", "Attack"), self._ev("war", "Attack")]}
        pred = {"s1": [self._ev("war", "Attack")]}
        report = score(pred, gold)
        assert (report.tc.tp, report.tc.n_pred, report.tc.n_gold) == (1, 1, 2)

    def test_set_semantics_dedupes_both_sides(self):
        gold = {"s1": [self._ev("war", "Attack"), self._ev("war", "Attack")]}
        pred = {"s1": [self._ev("war", "Attack")] * 3}
        report = score(pred, gold, set_semantics=True)
        assert (report.tc.tp, report.tc.n_pred, report.tc.n_gold) == (1, 1, 1)
        assert report.tc.f1 == 1.0

    def test_type_must_match_for_tc(self):
        gold = {"s1": [self._ev("war", "Attack")]}
        pred = {"s1": [self._ev("war", "Demonstrate")]}
        assert score(pred, gold).tc.tp == 0

    def test_ac_requires_role_and_type(self):
        gold = {"s1": [self._ev("war", "Attack", ("rebels", "Attacker"))]}
        wrong_role = {"s1": [self._ev("war", "Attack", ("rebels", "Target"))]}
        wrong_type = {"s1": [self._ev("war", "Demonstrate", ("rebels", "Attacker"))]}
        assert score(wrong_role, gold).ac.tp == 0
        assert score(wrong_type, gold).ac.tp == 0

    def test_missing_prediction_counts_as_empty(self):
        gold = {
            "s1": [self._ev("war", "Attack")],
            "s2": [self._ev("met", "Meet")],
        }
        report = score({"s1": [self._ev("war", "Attack")]}, gold)
        assert (report.tc.tp, report.tc.n_pred, report.tc.n_gold) == (1, 1, 2)

    def test_unknown_prediction_id_rejected(self):
        gold = {"s1": []}
        with pytest.raises(EvaluationError, match="s9"):
            score({"s9": []}, gold)

    def test_counter_passthrough(self):
        gold = {"s1": []}
        report = score({}, gold, gated_out=7, extraction_failed=2)
        assert report.gated_out == 7
        assert report.extraction_failed == 2

    def test_permutation_invariance(self):
        rng = random.Random(7)
        pred, gold = random_instance(rng)
        baseline = score(pred, gold)
        for _ in range(5):
            shuffled = {k: random.sample(list(v), len(v)) for k, v in pred.items()}
            assert score(shuffled, gold) == baseline

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(200):
            pred, gold = random_instance(rng)
            assert_matches_reference(pred, gold)
            assert_matches_reference(pred, gold, set_semantics=True)

    def test_render_layout(self):
        gold = {"s1": [self._ev("war", "Attack"), self._ev("met", "Meet")]}
        pred = {"s1": [self._ev("war", "Attack")]}
        text = score(pred, gold, gated_out=3, extraction_failed=1).render()
        lines = text.splitlines()
        assert lines[0] == "task                                            P(%)    R(%)   F1(%)"
        assert lines[1].startswith("TC")
        assert "tp=1" in lines[1]
        assert "P= 100.0" in lines[1]
        assert "R=  50.0" in lines[1]
        assert "F1=  66.7" in lines[1]
        assert lines[3] == "gated_out: 3  extraction_failed: 1"

    def test_to_dict_round_trip_fields(self):
        gold = {"s1": [self._ev("war", "Attack")]}
        payload = score({"s1": [self._ev("war", "Attack")]}, gold).to_dict()
        assert payload["tc"]["tp"] == 1
        assert payload["tc"]["f1"] == 1.0
        assert set(payload) == {"tc", "ac", "gated_out", "extraction_failed"}


class TestFilterByPolicy:
    def _predictions(self):
        ev = {"trigger": "war", "type": "Attack", "arguments": []}
        return {"s1": [ev], "s2": [ev], "s3": []}

    def test_disabled_gate_passes_everything_through(self):
        predictions = self._predictions()
        kept = filter_by_policy(predictions, {}, "without")
        assert kept == predictions
        assert kept is not predictions

    def test_survivors_keep_events_and_losers_disappear(self):
        verdicts = {
            "s1": {"rule": True, "learned": True, "llm": True},
            "s2": {"rule": False, "learned": False, "llm": False},
            "s3": {"rule": True, "learned": True, "llm": True},
        }
        kept = filter_by_policy(self._predictions(), verdicts, "all")
        assert set(kept) == {"s1", "s3"}

    def test_single_classifier_policy(self):
        verdicts = {
            "s1": {"rule": True, "learned": False, "llm": False},
            "s2": {"rule": False, "learned": True, "llm": True},
            "s3": {"rule": True, "learned": False, "llm": False},
        }
        kept = filter_by_policy(self._predictions(), verdicts, "rule")
        assert set(kept) == {"s1", "s3"}

    def test_missing_verdict_is_an_error(self):
        verdicts = {"s1": {"rule": True, "learned": True, "llm": True}}
        with pytest.raises(EvaluationError, match="s2"):
            filter_by_policy(self._predictions(), verdicts, "all")


class TestRunAblation:
    def _fixture(self):
        ev = {"trigger": "war", "type": "Attack", "arguments": []}
        other = {"trigger": "met", "type": "Meet", "arguments": []}
        gold = {"s1": [ev], "s2": [other]}
        predictions = {"s1": [ev], "s2": [ev]}
        verdicts = {
            "s1": {"rule": True, "learned": True, "llm": True},
            "s2": {"rule": True, "learned": False, "llm": False},
        }
        return gold, predictions, verdicts

    def test_scores_by_policy(self):
        gold, predictions, verdicts = self._fixture()
        policies = ["without", "rule", "all"]
        table = run_ablation(gold, verdicts, predictions, policies)
        assert table.gated_in == {"without": 2, "rule": 2, "all": 1}
        # "all" drops the wrong s2 prediction, lifting precision.
        assert table.reports["all"].tc.precision == 1.0
        assert table.reports["without"].tc.precision == 0.5
        # Recall is unchanged: the dropped prediction was wrong anyway.
        assert table.reports["all"].tc.recall == 0.5
        assert table.reports["without"].tc.recall == 0.5

    def test_render_header_and_nesting_footer(self):
        gold, predictions, verdicts = self._fixture()
        policies = ["without", "one+", "two+", "all"]
        table = run_ablation(gold, verdicts, predictions, policies)
        lines = table.render().splitlines()
        assert lines[0] == f"{'policy':<10} {'TC F1(%)':>9} {'AC F1(%)':>9} {'gated_in':>9}"
        assert lines[-1] == "gated-in nesting: all:1 <= two+:1 <= one+:2"

    def test_to_dict_shape(self):
        gold, predictions, verdicts = self._fixture()
        policies = ["without", "all"]
        table = run_ablation(gold, verdicts, predictions, policies)
        payload = table.to_dict()
        assert set(payload) == {"policies", "by_policy", "gated_in"}
        assert payload["policies"] == ["without", "all"]
        assert set(payload["by_policy"]) == {"without", "all"}
        assert payload["by_policy"]["all"]["tc"]["n_pred"] == 1
        assert payload["by_policy"]["without"]["tc"]["n_pred"] == 2

    def test_nesting_counts_monotone_on_random_verdicts(self):
        rng = random.Random(99)
        ev = {"trigger": "war", "type": "Attack", "arguments": []}
        for _ in range(50):
            n = rng.randint(1, 12)
            gold = {f"s{i}": [ev] for i in range(n)}
            predictions = {f"s{i}": [ev] for i in range(n)}
            verdicts = {
                f"s{i}": {
                    "rule": rng.random() < 0.5,
                    "learned": rng.random() < 0.5,
                    "llm": rng.random() < 0.5,
                }
                for i in range(n)
            }
            policies = ["without", "one+", "two+", "all"]
            table = run_ablation(gold, verdicts, predictions, policies)
            g = table.gated_in
            assert g["all"] <= g["two+"] <= g["one+"] <= g["without"]


class TestMetricBlock:
    def test_from_counts(self):
        block = MetricBlock.from_counts(1, 2, 4)
        assert block.precision == 0.5
        assert block.recall == 0.25
        assert block.f1 == pytest.approx(1 / 3)

    def test_report_is_frozen(self):
        report = ScoreReport(
            tc=MetricBlock.from_counts(0, 0, 0), ac=MetricBlock.from_counts(0, 0, 0)
        )
        with pytest.raises(AttributeError):
            report.gated_out = 5
