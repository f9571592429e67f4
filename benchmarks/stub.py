"""Loopback stub for the remote chat, embedding and verdict wire contracts.

    PYTHONPATH=src python3 benchmarks/stub.py --corpus DIR --port PORT --delay-ms 20

Endpoints (all POST, each answered after the fixed delay):
  /chat     {"model", "messages"} -> {"choices": [{"message": {"content": ...}}]}
  /embed    {"texts": [...]}      -> {"vectors": [[...], ...]}
  /verdict  {"texts": [...]}      -> {"probabilities": [...]}
Control endpoints, neither delayed nor counted:
  GET  /stats  request counts per endpoint, TCP connections that carried them,
               and the stub's pid
  POST /reset  rewinds the scripted replies, so each benchmark repeat sees
               the same reply sequence

Chat replies come from the corpus mock script through the program's own
ScriptedMockLlm; the segment is found by its transcript text and the stage by
the template's system message. Vectors come from the program's
HashedBagEmbedder, so remote retrieval ranks exactly like the in-process mock.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from eventpipe.llm import MockMissError, ScriptedMockLlm
from eventpipe.prompts import STAGES, PromptBundle, PromptMessage, load_template
from eventpipe.retrieval import HashedBagEmbedder


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class StubState:
    def __init__(self, corpus: Path, delay_s: float):
        self.delay_s = delay_s
        self.script_path = corpus / "script.json"
        self.mock = ScriptedMockLlm.from_script_file(self.script_path)
        self.embedder = HashedBagEmbedder()
        transcripts = _read_jsonl(corpus / "transcripts.jsonl")
        self.segment_by_text = {row["text"]: row["id"] for row in transcripts}
        probability = {row["id"]: row["p"] for row in _read_jsonl(corpus / "verdicts.jsonl")}
        self.probability_by_text = {row["text"]: probability[row["id"]] for row in transcripts}
        # Format requests quote the rejected argument reply, not the transcript.
        self.segment_by_reply = {}
        for key, value in json.loads(self.script_path.read_text(encoding="utf-8")).items():
            segment_id, stage = key.rsplit("/", 1)
            if stage == "argument":
                for reply in [value] if isinstance(value, str) else value:
                    self.segment_by_reply[reply] = segment_id
        self.stage_by_system = {load_template(s)[0].content: s for s in STAGES}
        self.counts: Counter = Counter()
        self.lock = threading.Lock()

    def count(self, what: str) -> None:
        with self.lock:
            self.counts[what] += 1

    def reset(self) -> None:
        with self.lock:
            self.mock = ScriptedMockLlm.from_script_file(self.script_path)

    def chat(self, payload: dict) -> dict:
        messages = tuple(PromptMessage(m["role"], m["content"]) for m in payload["messages"])
        stage = self.stage_by_system[messages[0].content]
        quoted = next(m.content[len("TEXT: "):] for m in messages if m.content.startswith("TEXT: "))
        if stage == "format":
            segment_id = self.segment_by_reply[quoted]
        else:
            if stage == "argument":
                quoted = quoted.rsplit(", EVENT TYPE(s): ", 1)[0]
            segment_id = self.segment_by_text[quoted]
        with self.lock:
            mock = self.mock
        text = mock.complete(PromptBundle(messages, stage, segment_id))
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}

    def embed(self, payload: dict) -> dict:
        return {"vectors": [v.tolist() for v in self.embedder.embed_batch(payload["texts"])]}

    def verdict(self, payload: dict) -> dict:
        return {"probabilities": [self.probability_by_text[t] for t in payload["texts"]]}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler, state: StubState):
        super().__init__(address, handler)
        self.state = state


class Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps connections open, so a client that reuses sessions shows
    # fewer connections. One handler instance serves one connection; it is
    # counted at its first wire-contract request, so control calls never are.
    protocol_version = "HTTP/1.1"
    server: StubServer
    counted = False

    def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
        pass

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        state = self.server.state
        if self.path != "/stats":
            self._reply(404, {"error": "unknown path"})
            return
        with state.lock:
            self._reply(200, {**state.counts, "pid": os.getpid()})

    def do_POST(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        if self.path == "/reset":
            state.reset()
            self._reply(200, {})
            return
        handler = {"/chat": state.chat, "/embed": state.embed, "/verdict": state.verdict}.get(self.path)
        if handler is None:
            self._reply(404, {"error": "unknown path"})
            return
        state.count(self.path.lstrip("/"))
        if not self.counted:
            self.counted = True
            state.count("connections")
        time.sleep(state.delay_s)
        try:
            body = handler(payload)
        except (KeyError, MockMissError, StopIteration, ValueError) as exc:
            self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(200, body)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--port", required=True, type=int)
    parser.add_argument("--delay-ms", required=True, type=float)
    args = parser.parse_args(argv)
    state = StubState(args.corpus, args.delay_ms / 1000.0)
    server = StubServer(("127.0.0.1", args.port), Handler, state)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
