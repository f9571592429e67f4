"""JSON recovery, reply parsing, and the extraction stage functions."""
from __future__ import annotations

import dataclasses
import itertools
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLD_EVENTS, TRANSCRIPT_TEXTS, build_golden_corpus, labeled_rows
from eventpipe import extract
from eventpipe.extract import (
    extract_arguments,
    extract_triggers,
    parse_trigger_reply,
    postprocess,
    recover_json_tail,
    repair_arguments,
    retrieve_examples,
)
from eventpipe.llm import ScriptedMockLlm, StageModel
from eventpipe.model import LabeledSegment, Segment
from eventpipe.pipeline import Pipeline
from eventpipe.retrieval import HashedBagEmbedder, build_index, embed_texts, search
from test_retrieval import brute_force_top_k

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


def _nesting(value) -> int:
    """How deep containers nest in a decoded JSON value, found level by level."""
    depth, level = 0, [value]
    while True:
        containers = [v for v in level if isinstance(v, (list, dict))]
        if not containers:
            return depth
        depth += 1
        level = [c for v in containers for c in (v.values() if isinstance(v, dict) else v)]


def _reference_last_json_value(text: str):
    """The character-by-character scan that _last_json_value must agree with.

    A value nested deeper than extract._MAX_DEPTH counts as non-JSON.
    """
    decoder = json.JSONDecoder()
    best = None
    i = 0
    n = len(text)
    while i < n:
        if text[i] in "[{":
            try:
                value, end = decoder.raw_decode(text, i)
            except (ValueError, RecursionError):
                i += 1
                continue
            if _nesting(value) > extract._MAX_DEPTH:
                i += 1
                continue
            best = value
            i = max(end, i + 1)
        else:
            i += 1
    return best


# The single pattern that _VALUE_STARTS splits by opener: the specification
# of where the next value can start.
_UNION_VALUE_START = re.compile(
    r'\[[ \t\n\r]*(?:[\]"\[{0-9-]|true|false|null|NaN|Infinity)|\{[ \t\n\r]*["}]'
)


def _reference_recovery(raw: str):
    with mock.patch.object(extract, "_last_json_value", _reference_last_json_value):
        return recover_json_tail(raw)


def _best_times(fn, *args, repeats=3):
    """The best of repeats process-CPU timings of fn(arg), for each arg.

    Each repeat times every arg in turn, so a stretch of slow CPU that one
    repeat lands on slows every input alike, not one input's timings only.
    """
    best = [float("inf")] * len(args)
    for _ in range(repeats):
        for k, arg in enumerate(args):
            start = time.process_time()
            fn(arg)
            best[k] = min(best[k], time.process_time() - start)
    return best


# Pieces that reach every decoder state: structure, numbers and their
# truncations, literals and their truncations, string escapes (lone and paired
# surrogates, cut \u escapes), NUL and other control characters, non-ASCII text.
_RECOVERY_TOKENS = [
    "[", "]", "{", "}", '"', ",", ":", " ", "\t", "\n", "\r",
    "0", "1", "7", "-", ".", "e", "E", "+", "1.5", "-0", "2e3", "1e", "-.",
    "true", "false", "null", "NaN", "Infinity", "-Infinity",
    "tru", "fals", "nul", "Na", "Infin", "-Inf",
    "\\", '\\"', "\\n", "\\u00e9", "\\ud800", "\\udc00", "\\ud83d\\ude00", "\\u12", "\\x",
    "\x00", "\x1f", "é", "日本", "\u2028",
    "the", "answer", " so ", '"trigger"', '"type"', '"Meet"', '"met"', '"arguments"',
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-99, 99) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["trigger", "type", "a"]), children, max_size=3),
    max_leaves=6,
)
# Nested blocks that never close, each opener followed by a few values: a
# decoder started at any block's opener reads past every later block.
_unclosed_blocks = st.lists(
    st.builds(
        lambda opener, values: opener + "".join(f"{v}," for v in values),
        st.sampled_from(["[", '{"a":[', '{"a": {"b":[']),
        st.lists(_json_values.map(json.dumps), max_size=3),
    ),
    min_size=1,
    max_size=4,
).map("".join)
_recovery_texts = st.lists(
    st.sampled_from(_RECOVERY_TOKENS) | _json_values.map(json.dumps) | _unclosed_blocks,
    max_size=40,
).map("".join)


def _stray_bracket_reply() -> str:
    """About 45 kB of prose with 3,000 stray, never nested, [word and {word, then an answer."""
    words = [f"{'[{'[k % 2]}note{k} filler" for k in range(3000)]
    prose = "\n".join(" ".join(words[k : k + 6]) for k in range(0, len(words), 6))
    return prose + '\nAnswer: [{"trigger": "met", "type": "Meet"}]'


def _nested_unclosed_reply(opener: str, blocks: int, length: int = 100_000) -> str:
    """About length characters of blocks nested in one another, none closed."""
    block = opener + "[0]," * ((length // blocks - len(opener)) // 4)
    return block * blocks


def _characters_read(text: str, searched: list[int] | None = None) -> tuple[int, int]:
    """The characters _last_json_value(text) bracket-scans, and those raw_decode reads.

    A scan counts up to the last token it consumed; a decode, up to where it
    ended or failed, not the window it was handed. With searched, searched[k]
    also gains the positions that searches of extract._VALUE_STARTS[k] try as
    a match start: up to and including the match, or to the end of the text.
    """
    counts = [0, 0]
    structure, raw_decode = extract._STRUCTURE, extract._raw_decode
    if searched is None:
        searched = [0] * len(extract._VALUE_STARTS)

    class Searcher:
        def __init__(self, k, pattern):
            self.k, self.pattern = k, pattern

        def search(self, string, pos):
            match = self.pattern.search(string, pos)
            searched[self.k] += (len(string) if match is None else match.start() + 1) - pos
            return match

    class Scanner:
        def finditer(self, string, start, stop):
            end = start
            try:
                for token in structure.finditer(string, start, stop):
                    end = token.end()
                    yield token
            finally:
                counts[0] += end - start

    def decode(decoder, chunk):
        try:
            value, end = raw_decode(decoder, chunk)
        except json.JSONDecodeError as exc:
            counts[1] += exc.pos
            raise
        counts[1] += end
        return value, end

    searchers = tuple(Searcher(k, p) for k, p in enumerate(extract._VALUE_STARTS))
    with mock.patch.object(extract, "_STRUCTURE", Scanner()), mock.patch.object(
        extract, "_raw_decode", decode
    ), mock.patch.object(extract, "_VALUE_STARTS", searchers):
        extract._last_json_value(text)
    return counts[0], counts[1]


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

    def test_result_does_not_depend_on_the_callers_stack(self):
        text = "[" * 900 + "1" + "]" * 900

        def under(frames):
            return under(frames - 1) if frames else extract._last_json_value(text)

        with ThreadPoolExecutor(max_workers=1) as pool:
            in_pool = pool.submit(extract._last_json_value, text).result()
        results = [under(0), under(200), under(900), in_pool]
        # Compared here, at a shallow stack: comparing nested lists recurses.
        assert [_nesting(value) for value in results] == [extract._MAX_DEPTH] * 4
        assert all(value == results[0] for value in results)

    @pytest.mark.parametrize("depth", [extract._MAX_DEPTH, extract._MAX_DEPTH + 1])
    def test_an_opener_nested_past_the_cap_is_skipped(self, depth):
        cap = extract._MAX_DEPTH
        raw = "[" * depth + "1" + "]" * depth
        # One level too deep: the outermost opener is skipped, the value inside it kept.
        got = extract._last_json_value(raw)
        assert got == json.loads("[" * cap + "1" + "]" * cap)
        assert repr(got) == repr(_reference_last_json_value(raw))

    def test_long_nested_run_costs_milliseconds(self):
        raw = "[" * 20_000 + ' answer: [{"trigger": "met", "type": "Meet"}]'
        assert recover_json_tail(raw) == [{"trigger": "met", "type": "Meet", "arguments": []}]
        # Decoding each opener down to the recursion limit took seconds.
        assert _best_times(recover_json_tail, raw)[0] < 0.5
        assert _best_times(extract._last_json_value, "[" * 20_000)[0] < 0.5

    @settings(max_examples=300, deadline=None)
    @given(text=_recovery_texts, window=st.integers(1, 64))
    def test_matches_the_reference_scan(self, text, window):
        with mock.patch.object(extract, "_DECODE_WINDOW", window):
            assert repr(extract._last_json_value(text)) == repr(_reference_last_json_value(text))
            assert repr(recover_json_tail(text)) == repr(_reference_recovery(text))

    @settings(max_examples=300, deadline=None)
    @given(text=_recovery_texts, window=st.integers(1, 64), cap=st.integers(1, 6))
    def test_a_low_depth_cap_matches_the_reference_scan(self, text, window, cap):
        # A cap this low sends most texts through the bracket scan.
        with mock.patch.object(extract, "_DECODE_WINDOW", window), mock.patch.object(
            extract, "_MAX_DEPTH", cap
        ):
            assert repr(extract._last_json_value(text)) == repr(_reference_last_json_value(text))

    @pytest.mark.parametrize("window", [1, 7, 64, extract._DECODE_WINDOW])
    def test_fixture_cases_match_the_reference_scan(self, window):
        with mock.patch.object(extract, "_DECODE_WINDOW", window):
            for _, raw, _ in RECOVERY_CASES:
                assert repr(recover_json_tail(raw)) == repr(_reference_recovery(raw))

    @pytest.mark.parametrize(
        "opener", ["{", "[word ", "[1 ", '{"a": 1 '], ids=["brace", "word", "number", "member"]
    )
    def test_cost_is_linear_in_stray_openers(self, opener):
        answer = ' [{"trigger": "met", "type": "Meet"}]'
        small, large = opener * 16_000 + answer, opener * 64_000 + answer
        assert recover_json_tail(large) == [{"trigger": "met", "type": "Meet", "arguments": []}]
        # Linear growth gives a ratio of 4; a scan quadratic in openers gives 16.
        small_s, large_s = _best_times(recover_json_tail, small, large)
        assert large_s <= 8 * small_s

    @pytest.mark.parametrize("opener", ["[", '{"a":['], ids=["array", "object"])
    def test_cost_does_not_grow_with_nested_unclosed_blocks(self, opener):
        answer = ' [{"trigger": "met", "type": "Meet"}]'
        few, many = (_nested_unclosed_reply(opener, m) + answer for m in (8, 128))
        assert recover_json_tail(many) == [{"trigger": "met", "type": "Meet", "arguments": []}]
        # A decode from each block's opener reads to the end of the reply; one
        # scan per block made 128 blocks cost 7.5 to 13 times 8 blocks.
        few_s, many_s = _best_times(recover_json_tail, few, many)
        assert many_s <= 3 * few_s

    # At 393 blocks of about 254 characters, nesting passes _MAX_DEPTH just
    # inside a doubled decode window: openers flagged one window at a time
    # were scanned again for every few blocks.
    @pytest.mark.parametrize("blocks", [8, 128, 393, 512])
    @pytest.mark.parametrize("opener", ["[", '{"a":['], ids=["array", "object"])
    def test_characters_read_are_linear_in_nested_unclosed_blocks(self, opener, blocks):
        text = _nested_unclosed_reply(opener, blocks)
        scanned, read = _characters_read(text)
        assert scanned <= 8 * len(text)
        assert read <= 8 * len(text)

    @pytest.mark.parametrize(
        "text",
        [
            _stray_bracket_reply(),
            "[1 " * 20_000 + ' [{"trigger": "met", "type": "Meet"}]',
            _nested_unclosed_reply("[", 128),
            _nested_unclosed_reply('{"a":[', 128),
        ],
        ids=["stray-prose", "stray-numbers", "nested-array", "nested-object"],
    )
    def test_each_start_pattern_scans_the_text_once(self, text):
        searched = [0] * len(extract._VALUE_STARTS)
        _characters_read(text, searched)
        # Searching every pattern again from each resume point rescans the
        # text once per opener.
        assert all(0 < count <= len(text) for count in searched)

    @settings(max_examples=300, deadline=None)
    @given(text=_recovery_texts)
    def test_next_value_start_matches_the_union_pattern(self, text):
        pending = [-1] * len(extract._VALUE_STARTS)
        for pos in range(len(text) + 1):
            match = _UNION_VALUE_START.search(text, pos)
            expected = len(text) if match is None else match.start()
            assert extract._next_value_start(text, pos, pending) == expected

    def test_next_value_start_matches_the_union_pattern_after_each_opener(self):
        # Every piece after each opener, so that no first member goes undrawn.
        patterns = len(extract._VALUE_STARTS)
        for opener, space, piece in itertools.product("[{", ["", " \t\n\r"], _RECOVERY_TOKENS):
            text = opener + space + piece
            match = _UNION_VALUE_START.search(text)
            expected = len(text) if match is None else match.start()
            assert extract._next_value_start(text, 0, [-1] * patterns) == expected, text

    def test_long_stray_bracket_reply_keeps_its_answer(self, ontology):
        raw = _stray_bracket_reply()
        assert len(raw) > 45_000
        assert parse_trigger_reply(raw, ontology) == [{"trigger": "met", "type": "Meet"}]

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
        out = parse_trigger_reply('[{"trigger": "war", "type": "Attack"}]', ontology)
        assert out == [{"trigger": "war", "type": "Attack"}]

    def test_no_event_phrase_without_json_is_empty(self, ontology):
        assert parse_trigger_reply("There are no events in the text.", ontology) == []
        assert parse_trigger_reply("No triggers found", ontology) == []

    def test_prose_without_disclaimer_is_unparseable(self, ontology):
        assert parse_trigger_reply("I could not find anything useful.", ontology) is None

    def test_unknown_event_type_rejects_whole_reply(self, ontology):
        raw = '[{"trigger": "met", "type": "Meet"}, {"trigger": "x", "type": "Meetx"}]'
        assert parse_trigger_reply(raw, ontology) is None

    def test_empty_array_is_valid_empty(self, ontology):
        assert parse_trigger_reply("[]", ontology) == []


def _parse_argument_reply(raw, triggers, ontology):
    """An argument-stage reply parsed as extract_arguments parses it; None = retry."""
    return extract._argument_events(raw, recover_json_tail(raw), triggers, ontology)


class TestParseArgumentReply:
    def _triggers(self):
        return [{"trigger": "war", "type": "Attack"}]

    def test_valid_reply_attaches_arguments(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "rebels", "role": "Attacker"}]}]'
        )
        events = _parse_argument_reply(raw, self._triggers(), ontology)
        assert events == [
            {
                "trigger": "war",
                "type": "Attack",
                "arguments": [{"name": "rebels", "role": "Attacker"}],
            }
        ]

    def test_role_case_is_canonicalized(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "rebels", "role": "attacker"}]}]'
        )
        events = _parse_argument_reply(raw, self._triggers(), ontology)
        assert events[0]["arguments"][0]["role"] == "Attacker"

    def test_disallowed_role_rejects_reply(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "monday", "role": "Adjudicator"}]}]'
        )
        assert _parse_argument_reply(raw, self._triggers(), ontology) is None

    def test_no_argument_phrase_gives_empty_argument_lists(self, ontology):
        events = _parse_argument_reply("There are no arguments.", self._triggers(), ontology)
        assert events == [{"trigger": "war", "type": "Attack", "arguments": []}]

    def test_prose_is_unparseable(self, ontology):
        assert _parse_argument_reply("the rebels did it", self._triggers(), ontology) is None

    def test_unmatched_entries_are_dropped(self, ontology):
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": []},'
            ' {"trigger": "something", "type": "Meet", "arguments": []}]'
        )
        events = _parse_argument_reply(raw, self._triggers(), ontology)
        assert len(events) == 1
        assert events[0]["trigger"] == "war"

    def test_trigger_match_ignores_case_and_spacing(self, ontology):
        triggers = [{"trigger": "Shot  Down", "type": "Attack"}]
        raw = (
            '[{"trigger": "shot down", "type": "Attack", "arguments": '
            '[{"name": "plane", "role": "Target"}]}]'
        )
        events = _parse_argument_reply(raw, triggers, ontology)
        assert events[0]["arguments"][0]["name"] == "plane"
        # The committed trigger string is the prediction's, not the reply's.
        assert events[0]["trigger"] == "Shot  Down"

    def test_one_object_per_argument_style_is_merged(self, ontology):
        # Some models emit the same trigger once per argument; a single
        # predicted occurrence absorbs all of them.
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": [{"name": "rebels", "role": "Attacker"}]},'
            ' {"trigger": "war", "type": "Attack", "arguments": [{"name": "village", "role": "Place"}]}]'
        )
        events = _parse_argument_reply(raw, self._triggers(), ontology)
        assert [a["name"] for a in events[0]["arguments"]] == ["rebels", "village"]

    def test_duplicate_predicted_triggers_consume_entries_in_order(self, ontology):
        triggers = [
            {"trigger": "war", "type": "Attack"},
            {"trigger": "war", "type": "Attack"},
        ]
        raw = (
            '[{"trigger": "war", "type": "Attack", "arguments": [{"name": "rebels", "role": "Attacker"}]},'
            ' {"trigger": "war", "type": "Attack", "arguments": [{"name": "village", "role": "Place"}]}]'
        )
        events = _parse_argument_reply(raw, triggers, ontology)
        assert [a["name"] for e in events for a in e["arguments"]] == ["rebels", "village"]
        assert len(events[0]["arguments"]) == 1
        assert len(events[1]["arguments"]) == 1

    def test_single_keys_merge_and_repeated_keys_consume_in_order(self, ontology):
        triggers = [
            {"trigger": "war", "type": "Attack"},
            {"trigger": "met", "type": "Meet"},
            {"trigger": "died", "type": "Die"},
            {"trigger": "War", "type": "Attack"},
            {"trigger": "died", "type": "Die"},
        ]
        entries = [
            ("war", "Attack", "rebels", "Attacker"),
            ("met", "Meet", "leaders", "Entity"),
            ("war", "Attack", "village", "Place"),
            ("met", "Meet", "Ankara", "Place"),
            ("war", "Attack", "convoy", "Target"),
            ("died", "Die", "soldier", "Victim"),
        ]
        raw = json.dumps(
            [
                {"trigger": t, "type": ty, "arguments": [{"name": n, "role": r}]}
                for t, ty, n, r in entries
            ]
        )
        events = _parse_argument_reply(raw, triggers, ontology)
        # met occurs once and merges both of its entries; war and died occur
        # twice and take one entry each in reply order, so the third war entry
        # is dropped and the second died keeps no arguments.
        assert [(e["trigger"], [a["name"] for a in e["arguments"]]) for e in events] == [
            ("war", ["rebels"]),
            ("met", ["leaders", "Ankara"]),
            ("died", ["soldier"]),
            ("War", ["village"]),
            ("died", []),
        ]

    def test_matching_cost_is_linear_in_triggers(self, ontology):
        def reply_and_triggers(n):
            # Half the triggers are distinct, half repeat one key.
            words = [f"w{k}" for k in range(n // 2)] + ["war"] * (n // 2)
            triggers = [{"trigger": w, "type": "Attack"} for w in words]
            raw = json.dumps(
                [
                    {"trigger": w, "type": "Attack", "arguments": [{"name": "rebels", "role": "Attacker"}]}
                    for w in words
                ]
            )
            return raw, triggers

        def parse(case):
            return _parse_argument_reply(case[0], case[1], ontology)

        small, large = reply_and_triggers(2_000), reply_and_triggers(8_000)
        assert all(len(e["arguments"]) == 1 for e in parse(large))
        # Linear growth gives a ratio of 4; a quadratic match gives 16.
        small_s, large_s = _best_times(parse, small, large)
        assert large_s <= 8 * small_s

    def test_trigger_with_no_entry_keeps_empty_arguments(self, ontology):
        triggers = [
            {"trigger": "war", "type": "Attack"},
            {"trigger": "met", "type": "Meet"},
        ]
        raw = '[{"trigger": "war", "type": "Attack", "arguments": []}]'
        events = _parse_argument_reply(raw, triggers, ontology)
        assert [(e["trigger"], len(e["arguments"])) for e in events] == [("war", 0), ("met", 0)]


# ---------------------------------------------------------------------------
# stage functions


def _support_index(dim=16):
    examples = labeled_rows(
        LabeledSegment(
            id=f"ex-{i}",
            text=text,
            gold_events=({"trigger": trig, "type": etype, "arguments": []},),
        )
        for i, (text, trig, etype) in enumerate(
            [
                ("a war broke out", "war", "Attack"),
                ("leaders met in geneva", "met", "Meet"),
                ("the miner died", "died", "Die"),
            ]
        )
    )
    embedder = HashedBagEmbedder(dimension=dim)
    return build_index(examples, embedder), embedder


def _query(text, embedder):
    return embed_texts([text], embedder)[0]


class TestRetrieveExamples:
    def test_returns_ranked_examples(self, ontology):
        index, embedder = _support_index()
        query = _query("a war broke out somewhere", embedder)
        (hits,) = search(index, query[None], 2)
        examples = retrieve_examples(index, hits)
        assert len(examples) == 2
        assert examples[0].id == "ex-0"

    def test_each_query_gets_its_own_examples(self, ontology):
        index, embedder = _support_index()
        texts = ["leaders met in geneva", "a war broke out", "the miner died", "anything"]
        queries = np.array(embed_texts(texts, embedder))
        found = [retrieve_examples(index, hits) for hits in search(index, queries, 2)]
        assert found == [retrieve_examples(index, search(index, q[None], 2)[0]) for q in queries]
        assert [shots[0].id for shots in found[:3]] == ["ex-1", "ex-0", "ex-2"]

    def test_blank_text_retrieves_nothing(self, tmp_path):
        # A gated-in segment whose text is blank is never embedded, and its
        # trigger stage retrieves no examples.
        corpus = build_golden_corpus(tmp_path / "blank", policy="learned", with_cache=False)
        rows = [json.loads(line) for line in corpus.transcripts_path.read_text().splitlines()]
        rows[0]["text"] = " \t "
        corpus.transcripts_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        pipeline = Pipeline(corpus.config)
        pipeline.index  # noqa: B018 - embeds the support set first
        queries = []
        embed_batch = pipeline.embedder.embed_batch
        pipeline.embedder.embed_batch = lambda texts: queries.append(texts) or embed_batch(texts)
        pipeline.run(until="triggers")
        gated_in = [
            json.loads(line) for line in (corpus.output_dir / "gate.jsonl").read_text().splitlines()[1:]
        ]
        gated_in = [row["id"] for row in gated_in if row["gated_in"]]
        assert rows[0]["id"] in gated_in
        assert len(queries) == 1 and len(queries[0]) == len(gated_in) - 1
        assert all(text.strip() for text in queries[0])
        triggers = {
            row["id"]: row
            for row in map(json.loads, (corpus.output_dir / "triggers.jsonl").read_text().splitlines()[1:])
        }
        assert triggers[rows[0]["id"]]["examples"] == []
        assert all(triggers[sid]["examples"] for sid in gated_in if sid != rows[0]["id"])

    def test_where_filter_applies(self, ontology):
        index, embedder = _support_index()
        query = _query("a war broke out somewhere", embedder)
        (hits,) = search(index, query[None], 3, by_type=True)
        only_meet = retrieve_examples(index, hits, ["Meet"])
        assert [ex.id for ex in only_meet] == ["ex-1"]


class TestExtractTriggers:
    @pytest.fixture(autouse=True)
    def _template(self, templates):
        self.template = templates["trigger"]

    def _run(self, script, ontology, max_attempts=3):
        provider = ScriptedMockLlm(script)
        seg = Segment(id="s1", text="a war broke out")
        model = StageModel(provider, self.template, max_attempts=max_attempts)
        row = extract_triggers(seg, [], ontology, model)
        return row, provider

    def test_clean_reply(self, ontology):
        row, _ = self._run({"s1/trigger": '[{"trigger": "war", "type": "Attack"}]'}, ontology)
        assert row == {
            "id": "s1",
            "predictions": [{"trigger": "war", "type": "Attack"}],
            "raw": '[{"trigger": "war", "type": "Attack"}]',
            "attempts": 1,
            "failed": False,
            "examples": [],
        }

    def test_retry_on_invalid_type_then_succeed(self, ontology):
        script = {
            "s1/trigger": [
                '[{"trigger": "war", "type": "Warfare"}]',
                '[{"trigger": "war", "type": "Attack"}]',
            ]
        }
        row, provider = self._run(script, ontology)
        assert not row["failed"]
        assert row["attempts"] == 2
        assert provider.call_count == 2

    def test_exhaustion_fails_with_empty_predictions(self, ontology):
        row, provider = self._run({"s1/trigger": "word salad"}, ontology)
        assert row["failed"]
        assert row["predictions"] == []
        assert row["attempts"] == 3
        assert row["raw"] == "word salad"
        assert provider.call_count == 3

    def test_no_event_reply_is_success_with_no_predictions(self, ontology):
        row, _ = self._run({"s1/trigger": "there are no events in the text"}, ontology)
        assert not row["failed"]
        assert row["predictions"] == []

    def test_example_ids_recorded(self, ontology, templates):
        index, embedder = _support_index()
        provider = ScriptedMockLlm({"s1/trigger": "[]"})
        seg = Segment(id="s1", text="a war broke out")
        (hits,) = search(index, _query(seg.text, embedder)[None], 2)
        examples = retrieve_examples(index, hits)
        row = extract_triggers(seg, examples, ontology, StageModel(provider, templates["trigger"]))
        assert row["examples"] == [ex.id for ex in examples] and len(examples) == 2


class TestExtractArguments:
    def _triggers(self):
        return [{"trigger": "war", "type": "Attack"}]

    def test_clean_reply(self, ontology, templates):
        script = {
            "s1/argument": (
                '[{"trigger": "war", "type": "Attack", "arguments": '
                '[{"name": "rebels", "role": "Attacker"}]}]'
            )
        }
        provider = ScriptedMockLlm(script)
        seg = Segment(id="s1", text="a war broke out")
        row, recovered = extract_arguments(
            seg, self._triggers(), [], ontology, StageModel(provider, templates["argument"])
        )
        assert not row["failed"]
        assert row["events"][0]["arguments"][0]["name"] == "rebels"
        assert recovered == recover_json_tail(script["s1/argument"])

    def test_degrades_to_empty_arguments_on_exhaustion(self, ontology, templates):
        provider = ScriptedMockLlm({"s1/argument": "cannot comply"})
        seg = Segment(id="s1", text="a war broke out")
        row, recovered = extract_arguments(
            seg, self._triggers(), [], ontology, StageModel(provider, templates["argument"])
        )
        assert row == {
            "id": "s1",
            "events": [{"trigger": "war", "type": "Attack", "arguments": []}],
            "raw": "cannot comply",
            "attempts": 3,
            "failed": True,
            "examples": [],
        }
        assert recovered is None

    def test_requires_triggers(self, ontology, templates):
        provider = ScriptedMockLlm({})
        seg = Segment(id="s1", text="x")
        with pytest.raises(ValueError):
            extract_arguments(seg, [], [], ontology, StageModel(provider, templates["argument"]))

    def test_same_type_filter_restricts_retrieval(self, golden_corpus):
        # With the filter on, each argument row's examples are the top k among
        # support examples of its predicted types; the trigger rows keep the
        # unfiltered top k.
        config = dataclasses.replace(golden_corpus.config, same_type_filter=True)
        pipeline = Pipeline(config)
        pipeline.run(until="arguments")
        index, embedder = pipeline.index, pipeline.embedder
        rows = {
            name: {row["id"]: row for row in map(json.loads, lines.splitlines()[1:])}
            for name in ("triggers", "arguments")
            for lines in [(golden_corpus.output_dir / f"{name}.jsonl").read_text()]
        }
        assert rows["arguments"]
        narrowed = 0
        for sid, row in rows["arguments"].items():
            query = _query(TRANSCRIPT_TEXTS[sid], embedder)
            wanted = {p["type"] for p in rows["triggers"][sid]["predictions"]}
            keep = lambda ex: any(ev["type"] in wanted for ev in ex.gold_events)
            masked = [hit[0] for hit in brute_force_top_k(index, query, 3, where=keep)]
            plain = [hit[0] for hit in brute_force_top_k(index, query, 3)]
            assert row["examples"] == masked
            assert rows["triggers"][sid]["examples"] == plain
            narrowed += masked != plain
        assert narrowed > 0

    def test_same_type_filter_matches_the_gold_type_predicate(self, golden_corpus, ontology):
        # The per-type shortlists answer what a per-row predicate over gold
        # event types picks, on the golden support set, for every single
        # predicted type and for every segment's gold type set.
        pipeline = Pipeline(golden_corpus.config)
        index, embedder = pipeline.index, pipeline.embedder
        type_sets = [[t] for t in ontology.event_types]
        type_sets += [[ev["type"] for ev in events] for events in GOLD_EVENTS.values() if events]
        picked = 0
        for types in type_sets:
            wanted = set(types)
            keep = lambda ex: any(ev["type"] in wanted for ev in ex.gold_events)
            for text in TRANSCRIPT_TEXTS.values():
                query = _query(text, embedder)
                (hits,) = search(index, query[None], 3, by_type=True)
                shots = retrieve_examples(index, hits, types)
                want = brute_force_top_k(index, query, 3, where=keep)
                assert [ex.id for ex in shots] == [example_id for example_id, _ in want]
                picked += len(want)
        assert picked > 0


# ---------------------------------------------------------------------------
# postprocessing


class TestPostprocess:
    @pytest.fixture(autouse=True)
    def _templates(self, templates):
        self.templates = templates

    # Pipeline path: the argument step's reply, repaired against the
    # committed triggers.
    def _repair(self, ontology, reply: str, format_provider):
        triggers = [{"trigger": "war", "type": "Attack"}]
        row, recovered = extract_arguments(
            Segment(id="s1", text="a war broke out"),
            triggers,
            [],
            ontology,
            StageModel(ScriptedMockLlm({"s1/argument": reply}), self.templates["argument"]),
        )
        model = StageModel(format_provider, self.templates["format"])
        return repair_arguments(row, recovered, triggers, ontology, model)

    def test_recoverable_raw_needs_no_provider(self, ontology):
        provider = ScriptedMockLlm({})  # any request would raise MockMissError
        entry = self._repair(
            ontology, 'noise [{"trigger": "war", "type": "Attack", "arguments": []}]', provider
        )
        assert entry.events[0]["trigger"] == "war"
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
        assert entry.events[0]["arguments"][0]["name"] == "rebels"
        assert entry.formatting_attempts == 1

    def test_invalid_roles_dropped_when_triggers_known(self, ontology):
        provider = ScriptedMockLlm({})
        entry = self._repair(
            ontology,
            '[{"trigger": "war", "type": "Attack", "arguments": '
            '[{"name": "rebels", "role": "Attacker"}, {"name": "monday", "role": "Time"}]}]',
            provider,
        )
        assert [a["name"] for a in entry.events[0]["arguments"]] == ["rebels"]
        assert provider.call_count == 0

    def test_degraded_when_format_model_also_fails(self, ontology):
        provider = ScriptedMockLlm({"s1/format": "still prose"})
        entry = self._repair(ontology, "prose that never parses", provider)
        assert entry.degraded
        assert not entry.excluded
        # Committed triggers survive as events with no arguments.
        assert entry.events == [{"trigger": "war", "type": "Attack", "arguments": []}]

    def test_blank_raw_with_triggers_degrades_without_provider_call(self, ontology):
        provider = ScriptedMockLlm({})
        entry = self._repair(ontology, "", provider)
        assert entry.degraded
        assert provider.call_count == 0

    def test_standalone_mode_excludes_invalid_segments(self, ontology, templates):
        raws = [
            ("good", '[{"trigger": "war", "type": "Attack"}]'),
            ("bad", "nothing recoverable"),
        ]
        provider = ScriptedMockLlm({"bad/format": "still nothing"})
        good, bad = postprocess(raws, ontology, StageModel(provider, templates["format"]))
        assert (good.excluded, bad.excluded) == (False, True)
        assert bad.events == []
        assert good.events[0]["type"] == "Attack"

    def test_standalone_mode_requires_full_validity(self, ontology, templates):
        # Without committed triggers there is nothing to salvage: a reply
        # with an invalid role must be repaired or the segment is excluded.
        raws = [
            (
                "s1",
                '[{"trigger": "war", "type": "Attack", "arguments": '
                '[{"name": "monday", "role": "Time"}]}]',
            )
        ]
        provider = ScriptedMockLlm(
            {"s1/format": '[{"trigger": "war", "type": "Attack", "arguments": []}]'}
        )
        (entry,) = postprocess(raws, ontology, StageModel(provider, templates["format"]))
        assert not entry.excluded
        assert entry.events[0]["arguments"] == []
        assert entry.formatting_attempts == 1
