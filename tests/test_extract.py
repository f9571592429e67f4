"""JSON recovery, reply parsing, and the extraction stage functions."""
from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventpipe.extract import (
    RawStageOutput,
    TriggerPrediction,
    extract_arguments,
    extract_triggers,
    parse_argument_reply,
    parse_trigger_reply,
    postprocess,
    recover_json_tail,
    repair_arguments,
    retrieve_examples,
)
from eventpipe.llm import ScriptedMockLlm
from eventpipe.model import Argument, EventMention, Segment
from eventpipe.retrieval import FewShotExample, HashedBagEmbedder, build_index

# ---------------------------------------------------------------------------
# recovery fixture suite (shared with the acceptance test)

A3_EXAMPLE_REPLY = (
    "TEXT: command says it will deploy soldiers to the region soon. "
    "Sure! Here is the structured output you asked for:\n"
    '[{"trigger": "deploy", "type": "Transport", "arguments": '
    '[{"name": "soldiers", "role": "Artifact"}, {"name": "region", "role": "Destination"}]}]'
)

A3_EXPECTED = [
    {
        "trigger": "deploy",
        "type": "Transport",
        "arguments": [
            {"name": "soldiers", "role": "Artifact"},
            {"name": "region", "role": "Destination"},
        ],
    }
]

# (case name, raw reply, expected canonical records or None)
RECOVERY_CASES = [
    ("appendix_transport_example", A3_EXAMPLE_REPLY, A3_EXPECTED),
    (
        "clean_array_identity",
        '[{"trigger": "war", "type": "Attack", "arguments": []}]',
        [{"trigger": "war", "type": "Attack", "arguments": []}],
    ),
    ("empty_array", "[]", []),
    ("no_json_prose", "I could not find anything useful here.", None),
    ("empty_string", "", None),
    (
        "aliased_keys",
        '[{"trigger_word": "met", "event_type": "Meet"}]',
        [{"trigger": "met", "type": "Meet", "arguments": []}],
    ),
    (
        "aliased_argument_keys",
        '[{"trigger": "war", "type": "Attack", "args": [{"entity": "rebels", "semantic_role": "Attacker"}]}]',
        [
            {
                "trigger": "war",
                "type": "Attack",
                "arguments": [{"name": "rebels", "role": "Attacker"}],
            }
        ],
    ),
    (
        "last_json_value_wins",
        'First guess: [{"trigger": "a", "type": "Meet"}] '
        'but on reflection: [{"trigger": "b", "type": "Attack"}]',
        [{"trigger": "b", "type": "Attack", "arguments": []}],
    ),
    (
        "wrapper_object_descends",
        '{"events": [{"trigger": "died", "type": "Die"}]}',
        [{"trigger": "died", "type": "Die", "arguments": []}],
    ),
    (
        "single_event_object_promoted",
        '{"trigger": "died", "type": "Die"}',
        [{"trigger": "died", "type": "Die", "arguments": []}],
    ),
    (
        "multi_trigger_split_copies_arguments",
        '[{"trigger": ["married", "paid"], "type": ["Marry", "Transfer-Money"], '
        '"arguments": [{"name": "couple", "role": "Person"}]}]',
        [
            {
                "trigger": "married",
                "type": "Marry",
                "arguments": [{"name": "couple", "role": "Person"}],
            },
            {
                "trigger": "paid",
                "type": "Transfer-Money",
                "arguments": [{"name": "couple", "role": "Person"}],
            },
        ],
    ),
    (
        "single_type_broadcasts_over_triggers",
        '[{"trigger": ["war", "shot down"], "type": "Attack"}]',
        [
            {"trigger": "war", "type": "Attack", "arguments": []},
            {"trigger": "shot down", "type": "Attack", "arguments": []},
        ],
    ),
    (
        "mismatched_trigger_type_lengths",
        '[{"trigger": ["a", "b", "c"], "type": ["Meet", "Attack"]}]',
        None,
    ),
    (
        "argument_dict_promoted_to_list",
        '[{"trigger": "war", "type": "Attack", "arguments": {"name": "rebels", "role": "Attacker"}}]',
        [
            {
                "trigger": "war",
                "type": "Attack",
                "arguments": [{"name": "rebels", "role": "Attacker"}],
            }
        ],
    ),
    (
        "null_arguments_mean_none",
        '[{"trigger": "war", "type": "Attack", "arguments": null}]',
        [{"trigger": "war", "type": "Attack", "arguments": []}],
    ),
    (
        "argument_missing_role_rejects_reply",
        '[{"trigger": "war", "type": "Attack", "arguments": [{"name": "rebels"}]}]',
        None,
    ),
    (
        "blank_trigger_rejects_reply",
        '[{"trigger": "  ", "type": "Attack"}]',
        None,
    ),
    (
        "markdown_fenced_json",
        '```json\n[{"trigger": "met", "type": "Meet"}]\n```',
        [{"trigger": "met", "type": "Meet", "arguments": []}],
    ),
    (
        "trailing_prose_after_json",
        '[{"trigger": "met", "type": "Meet"}] I hope that helps!',
        [{"trigger": "met", "type": "Meet", "arguments": []}],
    ),
    ("non_event_json_array", "[1, 2, 3]", None),
    ("unrelated_object", '{"temperature": 0.7}', None),
    ("unbalanced_json_tail", 'so the answer is [{"trigger": "met"', None),
    (
        "wrapper_with_single_object",
        '{"result": {"trigger": "met", "type": "Meet"}}',
        [{"trigger": "met", "type": "Meet", "arguments": []}],
    ),
]


class TestRecoverJsonTail:
    @pytest.mark.parametrize(
        "raw,expected", [(raw, exp) for _, raw, exp in RECOVERY_CASES],
        ids=[name for name, _, _ in RECOVERY_CASES],
    )
    def test_fixture_case(self, raw, expected):
        assert recover_json_tail(raw) == expected

    def test_suite_has_at_least_twenty_cases(self):
        assert len(RECOVERY_CASES) >= 20

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_openers_nested_past_the_recursion_limit_are_skipped(self, depth):
        raw = "[" * depth + ' answer: [{"trigger": "met", "type": "Meet"}]'
        assert recover_json_tail(raw) == [{"trigger": "met", "type": "Meet", "arguments": []}]

    def test_recovery_is_idempotent_on_its_own_output(self):
        for _, raw, expected in RECOVERY_CASES:
            if not expected:
                continue
            rendered = json.dumps(expected)
            assert recover_json_tail(rendered) == expected

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "trigger": st.text(min_size=1, max_size=8).filter(str.strip),
                    "type": st.sampled_from(["Attack", "Meet", "Die"]),
                    "arguments": st.lists(
                        st.fixed_dictionaries(
                            {
                                "name": st.text(min_size=1, max_size=8).filter(str.strip),
                                "role": st.sampled_from(["Place", "Target", "Victim"]),
                            }
                        ),
                        max_size=2,
                    ),
                }
            ),
            max_size=3,
        )
    )
    def test_round_trips_canonical_records(self, records):
        assert recover_json_tail(json.dumps(records)) == records


class TestParseTriggerReply:
    def test_valid_reply(self, ontology):
        out = parse_trigger_reply('[{"trigger": "war", "type": "Attack"}]', "s1", ontology)
        assert out == [TriggerPrediction("s1", "war", "Attack")]

    def test_no_event_phrase_without_json_is_empty(self, ontology):
        assert parse_trigger_reply("There are no events in the text.", "s1", ontology) == []
        assert parse_trigger_reply("No triggers found", "s1", ontology) == []

    def test_prose_without_disclaimer_is_unparseable(self, ontology):
        assert parse_trigger_reply("I could not find anything useful.", "s1", ontology) is None

    def test_unknown_event_type_rejects_whole_reply(self, ontology):
        raw = '[{"trigger": "met", "type": "Meet"}, {"trigger": "x", "type": "Meetx"}]'
        assert parse_trigger_reply(raw, "s1", ontology) is None

    def test_empty_array_is_valid_empty(self, ontology):
        assert parse_trigger_reply("[]", "s1", ontology) == []


class TestParseArgumentReply:
    def _triggers(self):
        return [TriggerPrediction("s1", "war", "Attack")]

    def test_valid_reply_attaches_arguments(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "rebels", "role": "Attacker"}]}]'
        )
        events = parse_argument_reply(raw, self._triggers(), ontology)
        assert events == [
            EventMention(
                trigger="war",
                event_type="Attack",
                arguments=(Argument(name="rebels", role="Attacker"),),
            )
        ]

    def test_role_case_is_canonicalized(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "rebels", "role": "attacker"}]}]'
        )
        events = parse_argument_reply(raw, self._triggers(), ontology)
        assert events[0].arguments[0].role == "Attacker"

    def test_disallowed_role_rejects_reply(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "monday", "role": "Adjudicator"}]}]'
        )
        assert parse_argument_reply(raw, self._triggers(), ontology) is None

    def test_no_argument_phrase_gives_empty_argument_lists(self, ontology):
        events = parse_argument_reply("There are no arguments.", self._triggers(), ontology)
        assert events == [EventMention(trigger="war", event_type="Attack", arguments=())]

    def test_prose_is_unparseable(self, ontology):
        assert parse_argument_reply("the rebels did it", self._triggers(), ontology) is None

    def test_unmatched_entries_are_dropped(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": []},'
            ' {"trigger": "something", "type": "Meet", "arguments": []}]'
        )
        events = parse_argument_reply(raw, self._triggers(), ontology)
        assert len(events) == 1
        assert events[0].trigger == "war"

    def test_trigger_match_ignores_case_and_spacing(self, ontology):
        triggers = [TriggerPrediction("s1", "Shot  Down", "Attack")]
        raw = (
            '[{"trigger": "shot down", "type": "Attack", "arguments": '
            '[{"name": "plane", "role": "Target"}]}]'
        )
        events = parse_argument_reply(raw, triggers, ontology)
        assert events[0].arguments[0].name == "plane"
        # The committed trigger string is the prediction's, not the reply's.
        assert events[0].trigger == "Shot  Down"

    def test_one_object_per_argument_style_is_merged(self, ontology):
        # Some models emit the same trigger once per argument; a single
        # predicted occurrence absorbs all of them.
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": [{"name": "rebels", "role": "Attacker"}]},'
            ' {"trigger": "war", "type": "Attack", "arguments": [{"name": "village", "role": "Place"}]}]'
        )
        events = parse_argument_reply(raw, self._triggers(), ontology)
        assert [a.name for a in events[0].arguments] == ["rebels", "village"]

    def test_duplicate_predicted_triggers_consume_entries_in_order(self, ontology):
        triggers = [
            TriggerPrediction("s1", "war", "Attack"),
            TriggerPrediction("s1", "war", "Attack"),
        ]
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": [{"name": "rebels", "role": "Attacker"}]},'
            ' {"trigger": "war", "type": "Attack", "arguments": [{"name": "village", "role": "Place"}]}]'
        )
        events = parse_argument_reply(raw, triggers, ontology)
        assert [a.name for e in events for a in e.arguments] == ["rebels", "village"]
        assert len(events[0].arguments) == 1
        assert len(events[1].arguments) == 1

    def test_trigger_with_no_entry_keeps_empty_arguments(self, ontology):
        triggers = [
            TriggerPrediction("s1", "war", "Attack"),
            TriggerPrediction("s1", "met", "Meet"),
        ]
        raw = '[{"trigger": "war", "type": "Attack", "arguments": []}]'
        events = parse_argument_reply(raw, triggers, ontology)
        assert [(e.trigger, len(e.arguments)) for e in events] == [("war", 0), ("met", 0)]


# ---------------------------------------------------------------------------
# stage functions


def _support_index(dim=16):
    examples = [
        FewShotExample(
            example_id=f"ex-{i}",
            text=text,
            gold_events=(EventMention(trigger=trig, event_type=etype, arguments=()),),
        )
        for i, (text, trig, etype) in enumerate(
            [
                ("a war broke out", "war", "Attack"),
                ("leaders met in geneva", "met", "Meet"),
                ("the miner died", "died", "Die"),
            ]
        )
    ]
    embedder = HashedBagEmbedder(dimension=dim)
    return build_index(examples, embedder), embedder


class TestRetrieveExamples:
    def test_returns_ranked_examples(self, ontology):
        index, embedder = _support_index()
        seg = Segment(id="q", text="a war broke out somewhere")
        examples = retrieve_examples(seg, index, embedder, 2)
        assert len(examples) == 2
        assert examples[0].example_id == "ex-0"

    def test_k_zero_or_missing_index_means_no_examples(self, ontology):
        index, embedder = _support_index()
        seg = Segment(id="q", text="anything")
        assert retrieve_examples(seg, index, embedder, 0) == []
        assert retrieve_examples(seg, None, embedder, 3) == []
        assert retrieve_examples(seg, index, None, 3) == []

    def test_blank_text_retrieves_nothing(self, ontology):
        index, embedder = _support_index()
        assert retrieve_examples(Segment(id="q", text="   "), index, embedder, 3) == []

    def test_where_filter_applies(self, ontology):
        index, embedder = _support_index()
        seg = Segment(id="q", text="a war broke out somewhere")
        only_meet = retrieve_examples(
            seg,
            index,
            embedder,
            3,
            where=lambda ex: any(ev.event_type == "Meet" for ev in ex.gold_events),
        )
        assert [ex.example_id for ex in only_meet] == ["ex-1"]


class TestExtractTriggers:
    def _run(self, script, ontology, max_attempts=3):
        provider = ScriptedMockLlm(script)
        seg = Segment(id="s1", text="a war broke out")
        result = extract_triggers(seg, None, ontology, provider, None, k=0, max_attempts=max_attempts)
        return result, provider

    def test_clean_reply(self, ontology):
        result, _ = self._run({"s1/trigger": '[{"trigger": "war", "type": "Attack"}]'}, ontology)
        assert not result.failed
        assert result.predictions == (TriggerPrediction("s1", "war", "Attack"),)
        assert result.raw.attempts == 1

    def test_retry_on_invalid_type_then_succeed(self, ontology):
        script = {
            "s1/trigger": [
                '[{"trigger": "war", "type": "Warfare"}]',
                '[{"trigger": "war", "type": "Attack"}]',
            ]
        }
        result, provider = self._run(script, ontology)
        assert not result.failed
        assert result.raw.attempts == 2
        assert provider.call_count == 2

    def test_exhaustion_fails_with_empty_predictions(self, ontology):
        result, provider = self._run({"s1/trigger": "word salad"}, ontology)
        assert result.failed
        assert result.predictions == ()
        assert result.raw.attempts == 3
        assert result.raw.raw_text == "word salad"
        assert provider.call_count == 3

    def test_no_event_reply_is_success_with_no_predictions(self, ontology):
        result, _ = self._run({"s1/trigger": "there are no events in the text"}, ontology)
        assert not result.failed
        assert result.predictions == ()

    def test_example_ids_recorded(self, ontology):
        index, embedder = _support_index()
        provider = ScriptedMockLlm({"s1/trigger": "[]"})
        seg = Segment(id="s1", text="a war broke out")
        result = extract_triggers(seg, index, ontology, provider, embedder, k=2)
        assert len(result.example_ids) == 2


class TestExtractArguments:
    def _triggers(self):
        return [TriggerPrediction("s1", "war", "Attack")]

    def test_clean_reply(self, ontology):
        script = {
            "s1/argument": (
                '[{"trigger": "war", "type": "Attack", "arguments": '
                '[{"name": "rebels", "role": "Attacker"}]}]'
            )
        }
        provider = ScriptedMockLlm(script)
        seg = Segment(id="s1", text="a war broke out")
        result = extract_arguments(seg, self._triggers(), None, ontology, provider, None, k=0)
        assert not result.failed
        assert result.events[0].arguments[0].name == "rebels"

    def test_degrades_to_empty_arguments_on_exhaustion(self, ontology):
        provider = ScriptedMockLlm({"s1/argument": "cannot comply"})
        seg = Segment(id="s1", text="a war broke out")
        result = extract_arguments(seg, self._triggers(), None, ontology, provider, None, k=0)
        assert result.failed
        assert result.events == (
            EventMention(trigger="war", event_type="Attack", arguments=()),
        )
        assert result.raw.attempts == 3

    def test_requires_triggers(self, ontology):
        provider = ScriptedMockLlm({})
        seg = Segment(id="s1", text="x")
        with pytest.raises(ValueError):
            extract_arguments(seg, [], None, ontology, provider, None, k=0)

    def test_same_type_filter_restricts_retrieval(self, ontology):
        index, embedder = _support_index()
        script = {"s1/argument": "no arguments"}
        provider = ScriptedMockLlm(script)
        seg = Segment(id="s1", text="leaders met in geneva today")
        result = extract_arguments(
            seg,
            [TriggerPrediction("s1", "met", "Meet")],
            index,
            ontology,
            provider,
            embedder,
            k=3,
            same_type_filter=True,
        )
        assert result.example_ids == ("ex-1",)


# ---------------------------------------------------------------------------
# postprocessing


class TestPostprocess:
    # Pipeline path: the argument step's reply, repaired against the
    # committed triggers.
    def _repair(self, ontology, reply: str, format_provider):
        triggers = [TriggerPrediction("s1", "war", "Attack")]
        result = extract_arguments(
            Segment(id="s1", text="a war broke out"),
            triggers,
            None,
            ontology,
            ScriptedMockLlm({"s1/argument": reply}),
            k=0,
        )
        return repair_arguments(result, triggers, ontology, format_provider)

    def test_recoverable_raw_needs_no_provider(self, ontology):
        provider = ScriptedMockLlm({})  # any request would raise MockMissError
        entry = self._repair(
            ontology, 'noise [{"trigger": "war", "type": "Attack", "arguments": []}]', provider
        )
        assert entry.events[0].trigger == "war"
        assert entry.formatting_attempts == 0
        assert provider.call_count == 0

    def test_unrecoverable_raw_goes_through_format_prompt(self, ontology):
        provider = ScriptedMockLlm(
            {
                "s1/format": (
                    '[{"trigger": "war", "type": "Attack", "arguments": '
                    '[{"name": "rebels", "role": "Attacker"}]}]'
                )
            }
        )
        entry = self._repair(ontology, "prose about the war only", provider)
        assert not entry.degraded
        assert not entry.excluded
        assert entry.events[0].arguments[0].name == "rebels"
        assert entry.formatting_attempts == 1

    def test_invalid_roles_dropped_when_triggers_known(self, ontology):
        provider = ScriptedMockLlm({})
        entry = self._repair(
            ontology,
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "rebels", "role": "Attacker"}, {"name": "monday", "role": "Time"}]}]',
            provider,
        )
        assert [a.name for a in entry.events[0].arguments] == ["rebels"]
        assert provider.call_count == 0

    def test_degraded_when_format_model_also_fails(self, ontology):
        provider = ScriptedMockLlm({"s1/format": "still prose"})
        entry = self._repair(ontology, "prose that never parses", provider)
        assert entry.degraded
        assert not entry.excluded
        # Committed triggers survive as events with no arguments.
        assert entry.events == (
            EventMention(trigger="war", event_type="Attack", arguments=()),
        )

    def test_blank_raw_with_triggers_degrades_without_provider_call(self, ontology):
        provider = ScriptedMockLlm({})
        entry = self._repair(ontology, "", provider)
        assert entry.degraded
        assert provider.call_count == 0

    def test_standalone_mode_excludes_invalid_segments(self, ontology):
        raws = [
            RawStageOutput("good", "argument", '[{"trigger": "war", "type": "Attack"}]', 1),
            RawStageOutput("bad", "argument", "nothing recoverable", 1),
        ]
        provider = ScriptedMockLlm({"bad/format": "still nothing"})
        report = postprocess(raws, ontology, provider)
        assert report.excluded_ids == ["bad"]
        good, bad = report.entries
        assert bad.events == ()
        assert good.events[0].event_type == "Attack"

    def test_standalone_mode_requires_full_validity(self, ontology):
        # Without committed triggers there is nothing to salvage: a reply
        # with an invalid role must be repaired or the segment is excluded.
        raws = [
            RawStageOutput(
                "s1",
                "argument",
                '[{"trigger": "war", "type": "Attack", "arguments": '
                '[{"name": "monday", "role": "Time"}]}]',
                1,
            )
        ]
        provider = ScriptedMockLlm(
            {"s1/format": '[{"trigger": "war", "type": "Attack", "arguments": []}]'}
        )
        report = postprocess(raws, ontology, provider)
        entry = report.entries[0]
        assert not entry.excluded
        assert entry.events[0].arguments == ()
        assert entry.formatting_attempts == 1
