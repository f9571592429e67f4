"""Shared fixtures: the default ontology, a 30-segment golden corpus with
scripted providers, and a programmable loopback HTTP server.

The golden corpus is constructed so every stage outcome is known by hand:
which segments each gate classifier admits, which trigger replies need a
retry, which argument replies degrade, and the exact tuple counts the scorer
must report. Tests assert against those frozen numbers.
"""
from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

import pytest

from eventpipe.config import PipelineConfig
from eventpipe.llm import ScriptedMockLlm
from eventpipe.model import LabeledRows, Ontology, load_ontology
from eventpipe.prompts import STAGES, Template, load_template

# ---------------------------------------------------------------------------
# ontology, support rows and prompt templates


def labeled_rows(segments) -> LabeledRows:
    """LabeledSegments, whose events are check_event dicts, as load_gold's columns."""
    segments = list(segments)

    def flat(ev: dict) -> tuple[str, ...]:
        args = [value for arg in ev["arguments"] for value in (arg["name"], arg["role"])]
        return (ev["trigger"], ev["type"], *args)

    return LabeledRows(
        tuple(seg.id for seg in segments),
        tuple(seg.text for seg in segments),
        tuple(tuple(map(flat, seg.gold_events)) for seg in segments),
    )


@pytest.fixture(scope="session")
def ontology() -> Ontology:
    return load_ontology()


@pytest.fixture(scope="session")
def templates() -> dict[str, Template]:
    """The packaged prompt template of each stage, parsed once."""
    return {stage: load_template(stage) for stage in STAGES}


# ---------------------------------------------------------------------------
# golden corpus
#
# Segment layout (rule verdict comes from support-set trigger containment,
# learned from a probability file, llm from scripted YES/NO replies):
#
#   seg-001..010  true events, verdicts (T,T,T); seg-010's trigger replies
#                 never parse, so it counts as an extraction failure.
#   seg-011..015  event-free, (F,F,F), honest empty replies.
#   seg-016..020  event-free, (F,F,F), but the trigger mock hallucinates one
#                 event each; only the "without" policy lets those through.
#   seg-021..030  one segment per remaining verdict cell, plus seg-027 which
#                 carries a real gold event that every non-trivial policy
#                 gates out (recall cost of gating).

SUPPORT_ROWS = [
    {
        "id": "tr-01",
        "text": "the president won the election by a wide margin",
        "event": [
            {
                "trigger": "election",
                "type": "Elect",
                "arguments": [{"name": "president", "role": "Person"}],
            }
        ],
    },
    {
        "id": "tr-02",
        "text": "a war broke out along the northern border",
        "event": [
            {
                "trigger": "war",
                "type": "Attack",
                "arguments": [{"name": "border", "role": "Place"}],
            }
        ],
    },
    {
        "id": "tr-03",
        "text": "the two leaders met in geneva to talk",
        "event": [
            {
                "trigger": "met",
                "type": "Meet",
                "arguments": [
                    {"name": "leaders", "role": "Entity"},
                    {"name": "geneva", "role": "Place"},
                ],
            }
        ],
    },
    {
        "id": "tr-04",
        "text": "they will deploy soldiers to the region",
        "event": [
            {
                "trigger": "deploy",
                "type": "Transport",
                "arguments": [
                    {"name": "soldiers", "role": "Artifact"},
                    {"name": "region", "role": "Destination"},
                ],
            }
        ],
    },
    {
        "id": "tr-05",
        "text": "the old miner died after a long illness",
        "event": [
            {
                "trigger": "died",
                "type": "Die",
                "arguments": [{"name": "miner", "role": "Victim"}],
            }
        ],
    },
    {
        "id": "tr-06",
        "text": "officers arrested the thief near the station",
        "event": [
            {
                "trigger": "arrested",
                "type": "Arrest-Jail",
                "arguments": [
                    {"name": "thief", "role": "Person"},
                    {"name": "officers", "role": "Agent"},
                ],
            }
        ],
    },
    {
        "id": "tr-07",
        "text": "a fighter jet was shot down over the sea",
        "event": [
            {
                "trigger": "shot down",
                "type": "Attack",
                "arguments": [{"name": "jet", "role": "Target"}],
            }
        ],
    },
    {
        "id": "tr-08",
        "text": "the couple married in a small chapel",
        "event": [
            {
                "trigger": "married",
                "type": "Marry",
                "arguments": [{"name": "couple", "role": "Person"}],
            }
        ],
    },
    {
        "id": "tr-09",
        "text": "the firm paid the contractor for the work",
        "event": [
            {
                "trigger": "paid",
                "type": "Transfer-Money",
                "arguments": [
                    {"name": "firm", "role": "Giver"},
                    {"name": "contractor", "role": "Recipient"},
                ],
            }
        ],
    },
    {
        "id": "tr-10",
        "text": "the court sentenced the smuggler to five years",
        "event": [
            {
                "trigger": "sentenced",
                "type": "Sentence",
                "arguments": [
                    {"name": "court", "role": "Adjudicator"},
                    {"name": "smuggler", "role": "Defendant"},
                ],
            }
        ],
    },
    {
        "id": "tr-11",
        "text": "workers protest outside the ministry gates",
        "event": [
            {
                "trigger": "protest",
                "type": "Demonstrate",
                "arguments": [{"name": "workers", "role": "Entity"}],
            }
        ],
    },
    {
        "id": "tr-12",
        "text": "the regulator fined the airline for delays",
        "event": [
            {
                "trigger": "fined",
                "type": "Fine",
                "arguments": [
                    {"name": "regulator", "role": "Adjudicator"},
                    {"name": "airline", "role": "Entity"},
                ],
            }
        ],
    },
]

TRANSCRIPT_TEXTS = {
    "seg-001": "the man won the election in may",
    "seg-002": "rebels started a war near the village",
    "seg-003": "ministers met in paris on friday",
    "seg-004": "command says it will deploy soldiers to the region soon",
    "seg-005": "a worker died at the factory overnight",
    "seg-006": "police arrested a suspect on monday",
    "seg-007": "a plane was shot down during the patrol",
    "seg-008": "the couple married in june and paid the venue a deposit",
    "seg-009": "the judge sentenced the defendant to three years",
    "seg-010": "dock workers protest over unpaid wages",
    "seg-011": "the recipe calls for two cups of flour",
    "seg-012": "sunshine is expected along the coast tomorrow",
    "seg-013": "the museum opens at nine on weekdays",
    "seg-014": "her garden grows tomatoes and basil",
    "seg-015": "the train timetable changes in autumn",
    "seg-016": "the anchor read the weather summary aloud",
    "seg-017": "tourists photographed the old lighthouse",
    "seg-018": "the bakery sells bread until noon",
    "seg-019": "volunteers painted the school fence",
    "seg-020": "the choir rehearsed a new song",
    "seg-021": "the film about the war years opens friday",
    "seg-022": "the council debated the budget for hours",
    "seg-023": "the mayor spoke about city finances",
    "seg-024": "the veterans met for coffee downtown",
    "seg-025": "the author sentenced her characters to happy endings",
    "seg-026": "the board approved the merger quietly",
    "seg-027": "the agency fined the factory for emissions",
    "seg-028": "the committee will gather next week",
    "seg-029": "rain fell gently on the quiet town",
    "seg-030": "the library extended its evening hours",
}

GOLD_EVENTS = {
    "seg-001": [
        {
            "trigger": "election",
            "type": "Elect",
            "arguments": [{"name": "man", "role": "Person"}],
        }
    ],
    "seg-002": [
        {
            "trigger": "war",
            "type": "Attack",
            "arguments": [
                {"name": "rebels", "role": "Attacker"},
                {"name": "village", "role": "Place"},
            ],
        }
    ],
    "seg-003": [
        {
            "trigger": "met",
            "type": "Meet",
            "arguments": [{"name": "paris", "role": "Place"}],
        }
    ],
    "seg-004": [
        {
            "trigger": "deploy",
            "type": "Transport",
            "arguments": [
                {"name": "soldiers", "role": "Artifact"},
                {"name": "region", "role": "Destination"},
            ],
        }
    ],
    "seg-005": [
        {
            "trigger": "died",
            "type": "Die",
            "arguments": [
                {"name": "worker", "role": "Victim"},
                {"name": "factory", "role": "Place"},
            ],
        }
    ],
    "seg-006": [
        {
            "trigger": "arrested",
            "type": "Arrest-Jail",
            "arguments": [
                {"name": "suspect", "role": "Person"},
                {"name": "police", "role": "Agent"},
            ],
        }
    ],
    "seg-007": [
        {
            "trigger": "shot down",
            "type": "Attack",
            "arguments": [{"name": "plane", "role": "Target"}],
        }
    ],
    "seg-008": [
        {
            "trigger": "married",
            "type": "Marry",
            "arguments": [{"name": "couple", "role": "Person"}],
        },
        {
            "trigger": "paid",
            "type": "Transfer-Money",
            "arguments": [
                {"name": "couple", "role": "Giver"},
                {"name": "venue", "role": "Recipient"},
            ],
        },
    ],
    "seg-009": [
        {
            "trigger": "sentenced",
            "type": "Sentence",
            "arguments": [
                {"name": "judge", "role": "Adjudicator"},
                {"name": "defendant", "role": "Defendant"},
            ],
        }
    ],
    "seg-010": [
        {
            "trigger": "protest",
            "type": "Demonstrate",
            "arguments": [{"name": "workers", "role": "Entity"}],
        }
    ],
    "seg-027": [
        {
            "trigger": "fined",
            "type": "Fine",
            "arguments": [
                {"name": "agency", "role": "Adjudicator"},
                {"name": "factory", "role": "Entity"},
            ],
        }
    ],
}

# Learned-classifier probabilities. seg-024 sits exactly on the default 0.5
# threshold, which counts as positive (inclusive comparison).
LEARNED_TRUE = {f"seg-{i:03d}" for i in range(1, 11)} | {"seg-022", "seg-026", "seg-028"}
LEARNED_P = {
    sid: (0.5 if sid == "seg-024" else 0.9 if sid in LEARNED_TRUE else 0.2)
    for sid in TRANSCRIPT_TEXTS
}

PRESENCE_YES = {f"seg-{i:03d}" for i in range(1, 11)} | {"seg-023", "seg-025", "seg-026"}


def _mock_script() -> dict:
    script: dict = {}
    for sid in TRANSCRIPT_TEXTS:
        if sid == "seg-028":
            # First reply is unparseable; the presence judge re-asks once.
            script[f"{sid}/presence"] = ["hmm, let me think about that", "YES"]
        else:
            script[f"{sid}/presence"] = "YES" if sid in PRESENCE_YES else "NO"

    triggers = {
        "seg-001": '[{"trigger": "election", "type": "Elect"}]',
        "seg-002": '[{"trigger": "war", "type": "Attack"}]',
        # Misspelled event type on the first attempt forces one retry.
        "seg-003": [
            '[{"trigger": "met", "type": "Meetx"}]',
            '[{"trigger": "met", "type": "Meet"}]',
        ],
        # Echoed transcript plus alias keys; the recovery layer must cope.
        "seg-004": (
            "TEXT: command says it will deploy soldiers to the region soon. "
            'Extracted: [{"trigger_word": "deploy", "event_type": "Transport"}]'
        ),
        "seg-005": '[{"trigger": "died", "type": "Die"}]',
        "seg-006": '[{"trigger": "arrested", "type": "Arrest-Jail"}]',
        "seg-007": '[{"trigger": "shot down", "type": "Attack"}]',
        "seg-008": (
            '[{"trigger": "married", "type": "Marry"},'
            ' {"trigger": "paid", "type": "Transfer-Money"}]'
        ),
        "seg-009": (
            "the judge sentenced the defendant to three years "
            '[{"trigger": "sentenced", "type": "Sentence"}]'
        ),
        # Never parses and never admits to finding nothing: a hard failure.
        "seg-010": "I could not find anything useful in this transcript.",
        "seg-011": "[]",
        "seg-012": "There are no events in the text.",
        "seg-013": "[]",
        "seg-014": "No events.",
        "seg-015": "[]",
        # Hallucinated events on event-free segments.
        "seg-016": '[{"trigger": "read", "type": "Phone-Write"}]',
        "seg-017": '[{"trigger": "photographed", "type": "Meet"}]',
        "seg-018": '[{"trigger": "sells", "type": "Transfer-Ownership"}]',
        "seg-019": '[{"trigger": "painted", "type": "Start-Org"}]',
        "seg-020": '[{"trigger": "rehearsed", "type": "Demonstrate"}]',
        "seg-021": "There are no events in the text.",
        "seg-022": "[]",
        "seg-023": "[]",
        "seg-024": "[]",
        "seg-025": "no events here.",
        "seg-026": "[]",
        "seg-027": '[{"trigger": "fined", "type": "Fine"}]',
        "seg-028": "[]",
        "seg-029": "[]",
        "seg-030": "[]",
    }
    for sid, reply in triggers.items():
        script[f"{sid}/trigger"] = reply

    arguments = {
        "seg-001": (
            '[{"trigger": "election", "type": "Elect",'
            ' "arguments": [{"name": "man", "role": "Person"}]}]'
        ),
        "seg-002": (
            '[{"trigger": "war", "type": "Attack", "arguments":'
            ' [{"name": "rebels", "role": "Attacker"}, {"name": "village", "role": "Place"}]}]'
        ),
        "seg-003": (
            '[{"trigger": "met", "type": "Meet",'
            ' "arguments": [{"name": "paris", "role": "Place"}]}]'
        ),
        "seg-004": (
            '[{"trigger": "deploy", "type": "Transport", "arguments":'
            ' [{"name": "soldiers", "role": "Artifact"},'
            ' {"name": "region", "role": "Destination"}]}]'
        ),
        # Pure prose, no JSON at all: the argument stage degrades and the
        # formatting stage has to reconstruct the record via its own LLM call.
        "seg-005": (
            "The worker sadly passed away at the factory. The victim was the"
            " worker and the place was the factory."
        ),
        # "Time" is not a role Arrest-Jail permits: strict parsing rejects the
        # whole reply, the final stage keeps the valid argument and drops the
        # bad one.
        "seg-006": (
            '[{"trigger": "arrested", "type": "Arrest-Jail", "arguments":'
            ' [{"name": "suspect", "role": "Person"},'
            ' {"name": "monday", "role": "Time"}]}]'
        ),
        "seg-007": (
            '[{"trigger": "shot down", "type": "Attack",'
            ' "arguments": [{"name": "plane", "role": "Target"}]}]'
        ),
        "seg-008": (
            '[{"trigger": "married", "type": "Marry",'
            ' "arguments": [{"name": "couple", "role": "Person"}]},'
            ' {"trigger": "paid", "type": "Transfer-Money", "arguments":'
            ' [{"name": "couple", "role": "Giver"}, {"name": "venue", "role": "Recipient"}]}]'
        ),
        "seg-009": (
            '[{"trigger": "sentenced", "type": "Sentence", "arguments":'
            ' [{"name": "judge", "role": "Adjudicator"},'
            ' {"name": "defendant", "role": "Defendant"}]}]'
        ),
        "seg-016": "[]",
        "seg-017": "[]",
        "seg-018": "[]",
        "seg-019": "[]",
        "seg-020": "[]",
        "seg-027": (
            '[{"trigger": "fined", "type": "Fine", "arguments":'
            ' [{"name": "agency", "role": "Adjudicator"},'
            ' {"name": "factory", "role": "Entity"}]}]'
        ),
    }
    for sid, reply in arguments.items():
        script[f"{sid}/argument"] = reply

    script["seg-005/format"] = (
        '[{"trigger": "died", "type": "Die", "arguments":'
        ' [{"name": "worker", "role": "Victim"}, {"name": "factory", "role": "Place"}]}]'
    )
    return script


# Verdict triples implied by the corpus, as (rule, learned, llm) per segment.
RULE_TRUE = {f"seg-{i:03d}" for i in range(1, 11)} | {
    "seg-021",
    "seg-024",
    "seg-025",
    "seg-027",
}
LLM_TRUE = PRESENCE_YES | {"seg-028"}


def expected_verdicts() -> dict[str, tuple[bool, bool, bool]]:
    return {
        sid: (sid in RULE_TRUE, sid in LEARNED_TRUE or sid == "seg-024", sid in LLM_TRUE)
        for sid in TRANSCRIPT_TEXTS
    }


@dataclass
class GoldenCorpus:
    root: Path
    config_path: Path
    config: PipelineConfig
    output_dir: Path
    cache_path: Path
    script_path: Path
    gold_path: Path
    transcripts_path: Path
    support_path: Path
    learned_path: Path
    n_segments: int = 30
    gated_in_all: int = 10
    trigger_failures: tuple[str, ...] = ("seg-010",)
    # (tp, n_pred, n_gold) for trigger-classification and argument-
    # classification tuples under the default "all" policy.
    tc_counts: tuple[int, int, int] = (10, 10, 12)
    ac_counts: tuple[int, int, int] = (15, 15, 19)
    # Expected agreement cells keyed by (rule, learned, llm).
    agreement_cells: dict = field(
        default_factory=lambda: {
            (False, False, False): 12,
            (False, False, True): 1,
            (False, True, False): 1,
            (False, True, True): 2,
            (True, False, False): 2,
            (True, False, True): 1,
            (True, True, False): 1,
            (True, True, True): 10,
        }
    )
    # Per-policy (tp, n_pred, n_gold) for TC tuples, and gated-in counts.
    policy_tc: dict = field(
        default_factory=lambda: {
            "without": (11, 16, 12),
            "rule": (11, 11, 12),
            "learned": (10, 10, 12),
            "llm": (10, 10, 12),
            "one+": (11, 11, 12),
            "two+": (10, 10, 12),
            "all": (10, 10, 12),
        }
    )
    policy_gated_in: dict = field(
        default_factory=lambda: {
            "without": 30,
            "rule": 14,
            "learned": 14,
            "llm": 14,
            "one+": 18,
            "two+": 14,
            "all": 10,
        }
    )

    @property
    def verdicts(self) -> dict[str, tuple[bool, bool, bool]]:
        return expected_verdicts()


def build_golden_corpus(
    root: Path,
    *,
    policy: str = "all",
    workers: int = 4,
    with_cache: bool = True,
    retrieval_k: int = 3,
    max_attempts: int = 3,
    corrective: bool = False,
    set_semantics: bool = False,
) -> GoldenCorpus:
    root.mkdir(parents=True, exist_ok=True)
    gold_path = root / "gold.jsonl"
    transcripts_path = root / "transcripts.jsonl"
    support_path = root / "support.jsonl"
    learned_path = root / "learned.jsonl"
    script_path = root / "mock_script.json"
    output_dir = root / "out"
    cache_path = root / "cache.jsonl"

    gold_rows = [
        {"id": sid, "text": TRANSCRIPT_TEXTS[sid], "event": GOLD_EVENTS.get(sid, [])}
        for sid in sorted(TRANSCRIPT_TEXTS)
    ]
    _write_jsonl(gold_path, gold_rows)
    _write_jsonl(
        transcripts_path,
        [{"id": sid, "text": TRANSCRIPT_TEXTS[sid]} for sid in sorted(TRANSCRIPT_TEXTS)],
    )
    _write_jsonl(support_path, SUPPORT_ROWS)
    _write_jsonl(
        learned_path, [{"id": sid, "p": LEARNED_P[sid]} for sid in sorted(TRANSCRIPT_TEXTS)]
    )
    script_path.write_text(json.dumps(_mock_script(), indent=1), encoding="utf-8")

    config_data = {
        "paths": {
            "gold": str(gold_path),
            "transcripts": str(transcripts_path),
            "support": str(support_path),
            "output_dir": str(output_dir),
            **({"cache": str(cache_path)} if with_cache else {}),
        },
        "gate": {
            "policy": policy,
            "learned": {"kind": "file", "path": str(learned_path)},
        },
        "retrieval": {"k": retrieval_k, "embedding": {"kind": "mock", "dimension": 64}},
        "llm": {"default": {"kind": "mock", "script": str(script_path)}},
        "retry": {"max_attempts": max_attempts, "corrective": corrective},
        "concurrency": {"workers": workers},
        "scoring": {"set_semantics": set_semantics},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config_data, indent=2), encoding="utf-8")
    return GoldenCorpus(
        root=root,
        config_path=config_path,
        config=PipelineConfig.load(config_path),
        output_dir=output_dir,
        cache_path=cache_path,
        script_path=script_path,
        gold_path=gold_path,
        transcripts_path=transcripts_path,
        support_path=support_path,
        learned_path=learned_path,
    )


def _write_jsonl(path: Path, rows) -> None:
    path.write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8"
    )


@pytest.fixture
def golden_corpus(tmp_path) -> GoldenCorpus:
    return build_golden_corpus(tmp_path / "corpus")


@pytest.fixture
def waiting_mock(monkeypatch):
    """Count the scripted mock as a provider that waits, so a run at workers > 1 opens its pool."""
    monkeypatch.setattr(ScriptedMockLlm, "waits", True)


# ---------------------------------------------------------------------------
# loopback HTTP stub


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            body = {"_raw": raw.decode("utf-8", "replace")}
        self.server.record(self.path, dict(self.headers), body)
        status, payload = self.server.next_response(body)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    # HTTP/1.1 keeps each connection open for the next request. As in any
    # http.server handler, a reply's head and body leave in two sends.
    protocol_version = "HTTP/1.1"
    timeout = 5  # a connection idle this long is closed


class StubServer(ThreadingHTTPServer):
    """Scriptable POST endpoint: answer by request content or from a queue, read requests.

    When ``responder`` is set, each request body is answered with
    ``responder(body) -> (status, payload)``, called on the request's own
    thread, so concurrent requests can be answered in any order. Otherwise
    queued (status, payload) pairs are served in arrival order, then
    ``default_response``. A keep_alive server answers in HTTP/1.1, so a
    client may send many requests on one connection; ``connections`` counts
    the connections accepted and ``open_connections`` those not yet closed.
    """

    def __init__(self, keep_alive: bool = False):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler if keep_alive else _StubHandler)
        self.connections = 0
        self.open_connections = 0
        self.requests: list[dict] = []
        self.queue: deque = deque()
        self.default_response = (200, {})
        self.responder: Callable[[dict], tuple[int, Any]] | None = None
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def finish_request(self, request, client_address) -> None:
        with self._lock:
            self.connections += 1
            self.open_connections += 1
        try:
            super().finish_request(request, client_address)
        finally:
            with self._lock:
                self.open_connections -= 1

    def record(self, path: str, headers: dict, body: dict) -> None:
        with self._lock:
            self.requests.append({"path": path, "headers": headers, "body": body})

    def next_response(self, body: dict):
        if self.responder is not None:
            return self.responder(body)
        with self._lock:
            if self.queue:
                return self.queue.popleft()
            return self.default_response

    def enqueue(self, payload, status: int = 200) -> None:
        with self._lock:
            self.queue.append((status, payload))


def _serve(server: StubServer):
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def http_server():
    yield from _serve(StubServer())


@pytest.fixture
def keep_alive_server():
    yield from _serve(StubServer(keep_alive=True))


# ---------------------------------------------------------------------------
# acceptance reporting

# One line per acceptance criterion, echoed into the terminal summary so the
# pass/fail verdicts stay visible even though pytest captures test stdout.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
