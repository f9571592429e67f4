"""Event-presence gate: classifiers, vote policies, agreement table."""
from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import labeled_rows
from eventpipe.config import ProviderConfig, build_verdict_provider
from eventpipe.gate import (
    AgreementTable,
    FileVerdictProvider,
    GateError,
    POLICIES,
    VerdictError,
    agreement_table,
    build_lexicon,
    check_policy,
    learned_classify,
    llm_classify,
    load_verdict_triples,
    parse_yes_no,
    rule_classify,
    vote,
)
from eventpipe.llm import ResponseCache, ScriptedMockLlm
from eventpipe.model import (
    DatasetError,
    LabeledSegment,
    Segment,
    load_gold,
    normalize,
)


def _training(ontology, *triggers):
    out = []
    for i, (trigger, etype) in enumerate(triggers):
        ev = {"trigger": trigger, "type": etype, "arguments": []}
        out.append(
            LabeledSegment(id=f"t{i}", text=f"... {trigger} ...", gold_events=(ev,))
        )
    return labeled_rows(out)


class TestRuleClassifier:
    def test_lexicon_collects_normalized_triggers(self, ontology):
        training = _training(ontology, ("  Election ", "Elect"), ("shot  DOWN", "Attack"))
        lexicon = build_lexicon(training)
        assert lexicon == frozenset({"election", "shot down"})

    @given(
        st.lists(
            st.lists(st.text(alphabet="aB \t\n\u00a0É", max_size=6), max_size=4), max_size=8
        )
    )
    def test_lexicon_equals_normalizing_every_trigger(self, segments):
        training = labeled_rows(
            LabeledSegment(
                f"t{i}",
                "x",
                tuple({"trigger": t, "type": "Attack", "arguments": []} for t in triggers),
            )
            for i, triggers in enumerate(segments)
        )
        every = {
            normalize(ev["trigger"])
            for ls in training
            for ev in ls.gold_events
            if normalize(ev["trigger"])
        }
        assert build_lexicon(training) == frozenset(every)

    def test_lexicon_normalizes_each_distinct_trigger_once(self, ontology, monkeypatch):
        import eventpipe.gate

        calls = []
        monkeypatch.setattr(eventpipe.gate, "normalize", lambda t: calls.append(t) or normalize(t))
        triggers = ["war", "War", "war", " war", "", "war", "  "]
        lexicon = build_lexicon(_training(ontology, *((t, "Attack") for t in triggers)))
        assert sorted(calls) == sorted(set(triggers))
        assert lexicon == frozenset({"war"})

    def test_containment_is_word_bounded(self):
        lexicon = frozenset({"war", "met"})
        assert rule_classify(Segment(id="a", text="the war began"), lexicon)
        assert not rule_classify(Segment(id="b", text="the warden said nothing"), lexicon)
        assert rule_classify(Segment(id="c", text="they met yesterday"), lexicon)
        assert not rule_classify(Segment(id="d", text="a comet fell"), lexicon)
        assert not rule_classify(Segment(id="e", text="unmet needs remain"), lexicon)

    def test_multi_word_trigger_must_be_contiguous(self):
        lexicon = frozenset({"shot down"})
        assert rule_classify(Segment(id="a", text="the jet was shot down today"), lexicon)
        assert not rule_classify(Segment(id="b", text="he shot it and went down"), lexicon)

    def test_case_and_spacing_insensitive(self):
        lexicon = frozenset({"shot down"})
        assert rule_classify(Segment(id="a", text="SHOT   DOWN in flames"), lexicon)

    def test_empty_lexicon_rejects_everything(self):
        lexicon = frozenset()
        assert not rule_classify(Segment(id="a", text="anything at all"), lexicon)


def _remote(url: str, **fields):
    config = ProviderConfig(kind="remote", endpoint=url, **fields)
    return build_verdict_provider(config)


class TestLearnedClassifier:
    def _provider(self, tmp_path, rows):
        path = tmp_path / "verdicts.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return FileVerdictProvider(path)

    def test_file_provider_reads_probabilities_and_booleans(self, tmp_path):
        provider = self._provider(
            tmp_path, [{"id": "a", "p": 0.7}, {"id": "b", "present": False}]
        )
        segments = [Segment(id="b", text=""), Segment(id="a", text="")]
        assert provider.presence_probabilities(segments) == [0.0, 0.7]

    def test_threshold_is_inclusive(self, tmp_path):
        provider = self._provider(tmp_path, [{"id": "a", "p": 0.5}])
        seg = Segment(id="a", text="")
        assert learned_classify([seg], provider, threshold=0.5) == [True]
        assert learned_classify([seg], provider, threshold=0.51) == [False]

    def test_missing_segment_raises(self, tmp_path):
        provider = self._provider(tmp_path, [{"id": "a", "p": 0.5}])
        with pytest.raises(VerdictError, match="zzz"):
            provider.presence_probabilities([Segment(id="a", text=""), Segment(id="zzz", text="")])

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="dup"):
            self._provider(tmp_path, [{"id": "dup", "p": 0.1}, {"id": "dup", "p": 0.2}])

    def test_out_of_range_probability_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            self._provider(tmp_path, [{"id": "a", "p": 1.5}])

    @pytest.mark.parametrize("value", [None, "0.4", True, [0.5]], ids=repr)
    def test_probability_that_is_not_a_number_is_rejected(self, tmp_path, value):
        message = r"line 1: record 'a': 'p' must be a number in \[0, 1\]$"
        with pytest.raises(DatasetError, match=message):
            self._provider(tmp_path, [{"id": "a", "p": value}])

    def test_a_row_without_a_verdict_names_its_record(self, tmp_path):
        message = r"verdicts\.jsonl: line 2: record 'b': needs 'present' or 'p'$"
        with pytest.raises(DatasetError, match=message):
            self._provider(tmp_path, [{"id": "a", "p": 0.1}, {"id": "b"}])

    def test_a_bad_probability_beside_a_verdict_is_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match=r"record 'a': 'p' must be a number in \[0, 1\]$"):
            self._provider(tmp_path, [{"id": "a", "present": True, "p": "high"}])

    def test_http_provider_posts_text_and_reads_probability(self, http_server):
        http_server.default_response = (200, {"probabilities": [0.8]})
        provider = _remote(http_server.url)
        p = provider.presence_probabilities([Segment(id="a", text="some text")])
        assert p == [0.8]
        assert http_server.requests[0]["body"] == {"texts": ["some text"]}

    def test_http_provider_rejects_malformed_payload(self, http_server):
        http_server.default_response = (200, {"probabilities": []})
        provider = _remote(http_server.url)
        with pytest.raises(VerdictError, match="0 probabilities for 1 segments"):
            provider.presence_probabilities([Segment(id="a", text="x")])

    def test_http_provider_posts_batches_in_segment_order(self, http_server):
        p_of = {f"text {i}": p for i, p in enumerate([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1])}
        http_server.responder = lambda body: (
            200, {"probabilities": [p_of[text] for text in body["texts"]]}
        )
        provider = _remote(http_server.url, batch_size=3)
        segments = [Segment(id=f"s{i}", text=f"text {i}") for i in range(7)]
        assert provider.presence_probabilities(segments) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0]
        assert sorted(r["body"]["texts"] for r in http_server.requests) == [
            ["text 0", "text 1", "text 2"],
            ["text 3", "text 4", "text 5"],
            ["text 6"],
        ]
        assert provider.presence_probabilities([]) == []
        assert len(http_server.requests) == 3

    @pytest.mark.parametrize(
        "value",
        [1.7, -0.1, "0.4", None, True, False, [0.5], {"p": 0.5}, float("nan"), float("inf")],
        ids=repr,
    )
    def test_http_provider_rejects_a_value_that_is_not_a_probability(self, http_server, value):
        http_server.default_response = (200, {"probabilities": [0.5, value]})
        provider = _remote(http_server.url)
        segments = [Segment(id="ok", text="a"), Segment(id="seg-7", text="b")]
        with pytest.raises(VerdictError, match="segment 'seg-7'"):
            provider.presence_probabilities(segments)


class TestParseYesNo:
    @pytest.mark.parametrize(
        "reply,expected",
        [
            ("YES", True),
            ("yes", True),
            ("  Yes, there is an event.", True),
            ("NO", False),
            ("No.", False),
            ("\n\nno events here", False),
            ("maybe", None),
            ("", None),
            ("?!", None),
            ("YESTERDAY", None),
        ],
    )
    def test_first_token_decides(self, reply, expected):
        assert parse_yes_no(reply) is expected


class TestLlmClassifier:
    def _segment(self):
        return Segment(id="s1", text="the war began")

    def test_yes_and_no(self, ontology, templates):
        yes = ScriptedMockLlm({"s1/presence": "YES"})
        no = ScriptedMockLlm({"s1/presence": "no, nothing here"})
        assert llm_classify(self._segment(), yes, ontology, template=templates["presence"]) is True
        assert llm_classify(self._segment(), no, ontology, template=templates["presence"]) is False

    def test_unparseable_reply_triggers_one_reask(self, ontology, templates):
        provider = ScriptedMockLlm({"s1/presence": ["hmm", "YES"]})
        assert llm_classify(
            self._segment(), provider, ontology, template=templates["presence"]
        ) is True
        assert provider.call_count == 2

    def test_two_unparseable_replies_raise_unless_lenient(self, ontology, templates):
        provider = ScriptedMockLlm({"s1/presence": ["hmm", "dunno"]})
        with pytest.raises(VerdictError):
            llm_classify(self._segment(), provider, ontology, template=templates["presence"])
        lenient = ScriptedMockLlm({"s1/presence": ["hmm", "dunno"]})
        assert llm_classify(
            self._segment(), lenient, ontology, lenient=True, template=templates["presence"]
        ) is False

    def test_cache_reask_does_not_replay_first_reply(self, ontology, tmp_path, templates):
        # With a cache, the second ask must use a distinct key; otherwise the
        # cached unparseable reply would be returned forever.
        cache = ResponseCache(tmp_path / "cache.jsonl")
        provider = ScriptedMockLlm({"s1/presence": ["hmm", "YES"]})
        assert llm_classify(
            self._segment(), provider, ontology, cache=cache, template=templates["presence"]
        ) is True
        assert provider.call_count == 2
        # A second classification is served entirely from the cache.
        assert llm_classify(
            self._segment(), provider, ontology, cache=cache, template=templates["presence"]
        ) is True
        assert provider.call_count == 2


class TestPolicyNames:
    def test_the_seven_documented_names(self):
        assert tuple(POLICIES) == ("without", "rule", "learned", "llm", "one+", "two+", "all")
        for name in POLICIES:
            assert check_policy(name) == name

    @pytest.mark.parametrize(
        "name",
        ["none", "three", "at_least_1", "at-least-2", "ALL", " all ", "TWO+", "majority", ""],
    )
    def test_any_other_spelling_is_rejected(self, name):
        message = (
            f"unknown gate policy {name!r}; "
            "expected one of: without, rule, learned, llm, one+, two+, all"
        )
        with pytest.raises(GateError, match=f"^{re.escape(message)}$"):
            check_policy(name)
        with pytest.raises(GateError, match=f"^{re.escape(message)}$"):
            vote({"rule": True, "learned": True, "llm": True}, name)


def _verdicts(rule: bool, learned: bool, llm: bool) -> dict[str, bool]:
    return {"rule": rule, "learned": learned, "llm": llm}


def _all_verdicts():
    return [_verdicts(*t) for t in itertools.product((False, True), repeat=3)]


class TestVote:
    def test_exhaustive_truth_table(self):
        for verdicts in _all_verdicts():
            r, b, m = verdicts["rule"], verdicts["learned"], verdicts["llm"]
            count = r + b + m
            assert vote(verdicts, "without") is True
            assert vote(verdicts, "rule") is r
            assert vote(verdicts, "learned") is b
            assert vote(verdicts, "llm") is m
            assert vote(verdicts, "one+") is (count >= 1)
            assert vote(verdicts, "two+") is (count >= 2)
            assert vote(verdicts, "all") is (count == 3)

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=40))
    def test_gated_in_sets_nest_monotonically(self, tuples):
        segments = [_verdicts(*t) for t in tuples]
        admitted = {
            name: {i for i, v in enumerate(segments) if vote(v, name)}
            for name in ("all", "two+", "one+", "without")
        }
        assert admitted["all"] <= admitted["two+"] <= admitted["one+"] <= admitted["without"]


class TestAgreementTable:
    def test_counts_and_cells(self):
        segments = [
            _verdicts(True, True, True),
            _verdicts(True, True, True),
            _verdicts(False, False, False),
            _verdicts(True, False, True),
        ]
        table = agreement_table(segments)
        assert table.total == 4
        assert table.cell(True, True, True) == 2
        assert table.cell(False, False, False) == 1
        assert table.cell(True, False, True) == 1
        assert table.cell(False, True, False) == 0

    def test_render_layout(self):
        table = AgreementTable(counts={(True, True, True): 3, (False, False, True): 7})
        text = table.render()
        lines = text.splitlines()
        assert lines[0].split() == ["rule", "learned", "llm=no", "llm=yes"]
        # Four (rule, learned) rows in no/no, no/yes, yes/no, yes/yes order.
        assert len(lines) == 6
        assert lines[1].split() == ["no", "no", "0", "7"]
        assert lines[4].split() == ["yes", "yes", "0", "3"]
        assert lines[5] == "total segments: 10"


class TestLoadVerdictTriples:
    def test_loads_fixture_and_skips_artifact_header(self, tmp_path):
        path = tmp_path / "gate.jsonl"
        rows = [
            {"stage": "gate", "config_hash": "abc123"},
            {"id": "a", "rule": True, "learned": False, "llm": True, "gated_in": True},
            {"id": "b", "rule": False, "learned": False, "llm": False},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        triples = load_verdict_triples(path)
        assert triples["a"] == {"rule": True, "learned": False, "llm": True}
        assert triples["b"] == {"rule": False, "learned": False, "llm": False}
        assert len(triples) == 2

    def test_a_header_after_the_first_record_is_an_input_error(self, tmp_path):
        path = tmp_path / "v.jsonl"
        rows = [
            {"id": "a", "rule": True, "learned": False, "llm": True},
            {"id": "b", "rule": False, "learned": False, "llm": False},
            {"stage": "oops", "rule": True, "learned": True, "llm": True},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(DatasetError) as excinfo:
            load_verdict_triples(path)
        assert str(excinfo.value) == (
            f"{path}: line 3: record needs 'id' and 'rule' and 'learned' and 'llm'"
        )

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "v.jsonl"
        row = {"id": "a", "rule": True, "learned": True, "llm": True}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DatasetError, match="a"):
            load_verdict_triples(path)


class TestGoldenCorpusVerdicts:
    def test_rule_classifier_matches_designed_matrix(self, golden_corpus, ontology):
        support = load_gold(golden_corpus.support_path, ontology)
        lexicon = build_lexicon(support)
        from eventpipe.model import load_transcripts

        for seg in load_transcripts(golden_corpus.transcripts_path):
            expected_rule = golden_corpus.verdicts[seg.id][0]
            assert rule_classify(seg, lexicon) is expected_rule, seg.id
