"""Acceptance gate: nine end-to-end checks, each at its stated tolerance.

Every test prints one summary line of the form

    criterion N: PASS (0.42s): <what was verified> [detail]

and the same lines are repeated in the pytest terminal summary. A criterion
that misses its tolerance or its wall-clock budget fails with a normal
assertion traceback.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import build_golden_corpus
from eventpipe.cli import main
from eventpipe.evaluate import prf
from eventpipe.extract import (
    extract_arguments,
    postprocess,
    recover_json_tail,
    repair_arguments,
)
from eventpipe.gate import POLICIES, vote
from eventpipe.llm import ScriptedMockLlm, StageModel
from eventpipe.model import Segment, check_event, load_gold
from eventpipe.retrieval import search
from test_evaluate import assert_matches_reference, random_instance
from test_extract import A3_EXAMPLE_REPLY, RECOVERY_CASES
from test_retrieval import _index_from_vectors, brute_force_top_k


@contextmanager
def criterion(number: int, title: str, budget_seconds: float | None = None):
    note: dict = {}
    started = time.perf_counter()

    def record(status: str, elapsed: float):
        line = f"criterion {number}: {status} ({elapsed:.2f}s): {title}"
        if note.get("detail"):
            line += f" [{note['detail']}]"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)

    try:
        yield note
    except BaseException:
        record("FAIL", time.perf_counter() - started)
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed >= budget_seconds:
        record("FAIL", elapsed)
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    record("PASS", elapsed)


# ---------------------------------------------------------------------------
# criterion 1: published end-to-end scores are self-consistent under prf()

# Reference results on the two evaluation corpora (noisy ASR transcripts and
# clean reference transcripts), as (recall%, precision%, F1%) per task.
PUBLISHED_SCORES = [
    ("Llama3-8B", "asr", "TC", 24.1, 57.6, 33.9),
    ("GPT-4o-mini", "asr", "TC", 36.6, 67.4, 47.4),
    ("o1-mini", "asr", "TC", 59.2, 65.9, 62.4),
    ("Llama3-8B", "clean", "TC", 24.5, 52.8, 33.5),
    ("GPT-4o-mini", "clean", "TC", 36.8, 65.5, 47.1),
    ("o1-mini", "clean", "TC", 60.8, 66.0, 63.3),
    ("Llama3-8B", "asr", "AC", 11.2, 18.3, 13.9),
    ("GPT-4o-mini", "asr", "AC", 17.0, 24.3, 20.0),
    ("o1-mini", "asr", "AC", 26.9, 27.1, 27.1),
    ("Llama3-8B", "clean", "AC", 11.5, 17.1, 13.7),
    ("GPT-4o-mini", "clean", "AC", 16.8, 23.2, 19.5),
    ("o1-mini", "clean", "AC", 28.0, 27.6, 27.8),
]


def test_criterion_1_reference_scores_reproduce():
    with criterion(
        1, "published F1 reproduced from published P/R via prf()", budget_seconds=1.0
    ) as note:
        reproduced = 0
        for model, corpus, task, recall_pct, precision_pct, f1_pct in PUBLISHED_SCORES:
            # Integer counts that realize the published rates exactly:
            # P = tp/n_pred and R = tp/n_gold with one-decimal percentages.
            p10 = round(precision_pct * 10)
            r10 = round(recall_pct * 10)
            tp = p10 * r10
            n_pred = 1000 * r10
            n_gold = 1000 * p10
            precision, recall, f1 = prf(tp, n_pred, n_gold)
            assert precision * 100 == pytest.approx(precision_pct)
            assert recall * 100 == pytest.approx(recall_pct)
            got = round(f1 * 100, 1)
            assert abs(got - f1_pct) <= 0.1 + 1e-9, (
                f"{model}/{corpus}/{task}: recomputed F1 {got} vs published {f1_pct}"
            )
            reproduced += 1
        note["detail"] = f"{reproduced}/12 rows within 0.1"


# ---------------------------------------------------------------------------
# criterion 2: the published 2x2x2 classifier agreement counts

AGREEMENT_CELLS = {
    (False, False, False): 258,
    (False, False, True): 27,
    (False, True, False): 61,
    (False, True, True): 39,
    (True, False, False): 17,
    (True, False, True): 27,
    (True, True, False): 19,
    (True, True, True): 228,
}


def test_criterion_2_agreement_table_counts(tmp_path, capsys):
    with criterion(
        2, "agreement table over 676 verdict triples matches published cells", budget_seconds=1.0
    ) as note:
        rows = []
        for (rule, learned, llm), count in AGREEMENT_CELLS.items():
            for i in range(count):
                rows.append(
                    {
                        "id": f"v-{len(rows):04d}",
                        "rule": rule,
                        "learned": learned,
                        "llm": llm,
                    }
                )
        assert len(rows) == 676
        random.Random(0).shuffle(rows)
        path = tmp_path / "verdicts.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

        assert main(["agreement", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "total segments: 676"
        parsed = {}
        for line in out[1:5]:
            rule_word, learned_word, llm_no, llm_yes = line.split()
            rule = rule_word == "yes"
            learned = learned_word == "yes"
            parsed[(rule, learned, False)] = int(llm_no)
            parsed[(rule, learned, True)] = int(llm_yes)
        assert parsed == AGREEMENT_CELLS
        note["detail"] = "8/8 cells, sum 676"


# ---------------------------------------------------------------------------
# criterion 3: the scorer against an independent brute-force matcher


def test_criterion_3_scorer_matches_brute_force():
    with criterion(
        3, "score() equals brute-force multiset matching on random corpora", budget_seconds=30.0
    ) as note:
        rng = random.Random(20260818)
        instances = 1000
        for i in range(instances):
            predictions, gold = random_instance(rng, max_segments=5, max_events=4, max_args=3)
            assert_matches_reference(predictions, gold, set_semantics=bool(i % 2))
        note["detail"] = f"{instances} randomized instances, multiset and set semantics"


# ---------------------------------------------------------------------------
# criterion 4: vote() truth table and policy nesting


def independently_expected_vote(rule: bool, learned: bool, llm: bool, policy_name: str) -> bool:
    count = int(rule) + int(learned) + int(llm)
    return {
        "without": True,
        "rule": rule,
        "learned": learned,
        "llm": llm,
        "one+": count >= 1,
        "two+": count >= 2,
        "all": count == 3,
    }[policy_name]


def test_criterion_4_vote_truth_table_and_nesting():
    with criterion(
        4, "vote() matches the exhaustive truth table and policies nest", budget_seconds=1.0
    ) as note:
        checked = 0
        for rule, learned, llm in itertools.product((False, True), repeat=3):
            verdicts = {"rule": rule, "learned": learned, "llm": llm}
            for name in POLICIES:
                expected = independently_expected_vote(rule, learned, llm, name)
                assert vote(verdicts, name) is expected
                checked += 1
        assert checked == 8 * 7

        rng = random.Random(4)
        for _ in range(1000):
            verdicts = {
                "rule": rng.random() < 0.5, "learned": rng.random() < 0.5, "llm": rng.random() < 0.5
            }
            if vote(verdicts, "all"):
                assert vote(verdicts, "two+")
            if vote(verdicts, "two+"):
                assert vote(verdicts, "one+")
        note["detail"] = "56 truth-table cells, 1000 nesting draws"


# ---------------------------------------------------------------------------
# criterion 5: exact retrieval against a brute-force scan


def test_criterion_5_retrieval_is_exact():
    with criterion(
        5, "search(k=10) equals brute-force scan on 2000 vectors x 100 queries", budget_seconds=10.0
    ) as note:
        rng = np.random.default_rng(5150)
        vectors = rng.normal(size=(2000, 24))
        # Exact duplicates force score ties so the id tie-break is exercised.
        for i in range(60, 2000, 97):
            vectors[i] = vectors[i - 57]
        order = rng.permutation(2000)
        ids = [f"v-{order[i]:04d}" for i in range(2000)]
        index = _index_from_vectors(vectors, ids=ids)

        queries = rng.normal(size=(100, 24))
        # One search over all of them: the scan reads the rows once per query group.
        for q, hits in zip(queries, search(index, queries, 10), strict=True):
            got = [(index.example_ids[row], float(np.dot(index.vectors[row], q))) for row in hits.rows]
            assert got == brute_force_top_k(index, q, 10)
        note["detail"] = "100/100 queries identical, ties included"


# ---------------------------------------------------------------------------
# criterion 6: structured-output recovery fixture suite


def test_criterion_6_recovery_fixture_suite():
    with criterion(
        6, "JSON recovery passes the fixture suite", budget_seconds=1.0
    ) as note:
        assert len(RECOVERY_CASES) >= 20
        for name, raw, expected in RECOVERY_CASES:
            assert recover_json_tail(raw) == expected, f"recovery case {name!r}"

        # The canonical worked example: prose-wrapped reply recovers to one
        # troop-movement event with two role-labeled arguments.
        recovered = recover_json_tail(A3_EXAMPLE_REPLY)
        assert recovered is not None and len(recovered) == 1
        event = recovered[0]
        assert event["trigger"] == "deploy"
        assert event["type"] == "Transport"
        assert len(event["arguments"]) == 2
        for argument in event["arguments"]:
            assert set(argument) == {"name", "role"}
        note["detail"] = f"{len(RECOVERY_CASES)} cases"


# ---------------------------------------------------------------------------
# criterion 7: byte determinism and zero-cost resume on the golden corpus


def test_criterion_7_golden_run_determinism(tmp_path, capsys):
    with criterion(
        7, "golden run byte-identical twice; --resume makes zero provider calls",
        budget_seconds=10.0,
    ) as note:
        corpus = build_golden_corpus(tmp_path / "golden")

        assert main(["run", "--config", str(corpus.config_path)]) == 0
        capsys.readouterr()
        first = {
            name: (corpus.output_dir / name).read_bytes()
            for name in ("predictions.jsonl", "report.json")
        }

        for stale in corpus.output_dir.iterdir():
            stale.unlink()
        assert main(["run", "--config", str(corpus.config_path)]) == 0
        capsys.readouterr()
        second = {
            name: (corpus.output_dir / name).read_bytes()
            for name in ("predictions.jsonl", "report.json")
        }
        assert first == second

        assert main(["run", "--config", str(corpus.config_path), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "provider calls: 0" in out
        assert "resumed stages: gate, triggers, arguments, final" in out
        note["detail"] = "30 segments; predictions and score report stable"


# ---------------------------------------------------------------------------
# criterion 8: the full ensemble gate beats no gate on hallucinated segments


def test_criterion_8_gate_beats_no_gate(tmp_path, capsys):
    with criterion(
        8, "TC F1 under the unanimous gate strictly exceeds the ungated run",
        budget_seconds=5.0,
    ) as note:
        corpus = build_golden_corpus(tmp_path / "hallucination")
        assert (
            main(
                [
                    "ablate",
                    "--config",
                    str(corpus.config_path),
                    "--policies",
                    "without,all",
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(
            (corpus.output_dir / "ablation" / "ablation.json").read_text(encoding="utf-8")
        )
        gated = payload["by_policy"]["all"]["tc"]["f1"]
        ungated = payload["by_policy"]["without"]["tc"]["f1"]
        assert gated > ungated
        note["detail"] = f"TC F1 {gated * 100:.1f} (all) > {ungated * 100:.1f} (without)"


# ---------------------------------------------------------------------------
# criterion 9: validation totality under adversarial replies

VALID_TRIGGER_WORDS = ["war", "met", "died", "deploy", ""]
TYPE_POOL = [
    "Attack",
    "Meet",
    "Die",
    "Transport",
    "Elect",
    "Warfare",  # not in the ontology
    "meeting",  # wrong case
    "Attack ",  # stray space
    "Elected",
    "",
]
ROLE_POOL = [
    "Attacker",
    "Target",
    "Place",
    "Victim",
    "Agent",
    "Person",
    "Entity",
    "attacker",  # wrong case
    "Bogus",
    "Time",
    "",
]

adversarial_entry = st.fixed_dictionaries(
    {
        "trigger": st.sampled_from(VALID_TRIGGER_WORDS) | st.text(max_size=6),
        "type": st.sampled_from(TYPE_POOL),
        "arguments": st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["rebels", "village", "soldiers", "", " "]),
                    "role": st.sampled_from(ROLE_POOL),
                }
            ),
            max_size=3,
        ),
    }
)


@st.composite
def adversarial_reply(draw):
    entries = draw(st.lists(adversarial_entry, max_size=3))
    body = json.dumps(entries)
    form = draw(st.integers(min_value=0, max_value=4))
    if form == 0:
        return body
    if form == 1:
        return "Sure, here you go: " + body
    if form == 2:
        return json.dumps({"events": entries})
    if form == 3:
        return body + " hope that helps"
    return draw(st.text(max_size=40))


class TestCriterion9ValidationTotality:
    checked_replies = 0

    @settings(max_examples=120, deadline=None)
    @given(raw=adversarial_reply(), repair=adversarial_reply(), with_triggers=st.booleans())
    def test_no_invalid_event_survives_postprocessing(
        self, ontology, templates, raw, repair, with_triggers
    ):
        provider = ScriptedMockLlm({"s1/argument": raw, "s1/format": repair})
        formatter = StageModel(provider, templates["format"])
        if with_triggers:
            # Pipeline path: the argument step's reply, repaired against the
            # committed triggers.
            triggers = [{"trigger": "war", "type": "Attack"}]
            row, recovered = extract_arguments(
                Segment(id="s1", text="a war broke out"), triggers, [], ontology,
                StageModel(provider, templates["argument"]),
            )
            entries = [repair_arguments(row, recovered, triggers, ontology, formatter)]
        else:
            entries = postprocess([("s1", raw)], ontology, formatter)
        for entry in entries:
            if entry.excluded:
                assert entry.events == []
                continue
            for event in entry.events:
                assert event["type"] in ontology.event_types
                allowed = set(ontology.roles_for(event["type"]))
                for argument in event["arguments"]:
                    assert argument["role"] in allowed
                    assert argument["name"].strip()
        TestCriterion9ValidationTotality.checked_replies += 1

    def test_full_pipeline_outputs_validate(self, tmp_path, ontology):
        with criterion(
            9, "every pipeline output event has an in-ontology type and allowed roles"
        ) as note:
            # The property above already ran (alphabetical method order);
            # finish with a whole-pipeline check over the scripted corpus,
            # whose replies include unknown types and disallowed roles.
            assert self.checked_replies > 0
            corpus = build_golden_corpus(tmp_path / "validation")
            assert main(["run", "--config", str(corpus.config_path)]) == 0
            loaded = load_gold(corpus.output_dir / "predictions.jsonl", ontology)
            events = 0
            for labeled in loaded:
                for event in labeled.gold_events:
                    assert check_event(event, labeled.id, ontology) == event
                    assert event["type"] in ontology.event_types
                    allowed = set(ontology.roles_for(event["type"]))
                    for argument in event["arguments"]:
                        assert argument["role"] in allowed
                    events += 1
            note["detail"] = (
                f"{self.checked_replies} adversarial replies + {events} pipeline events"
            )
