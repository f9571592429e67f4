"""Remote HTTP: the transport contract of one POST, and remote batches posted
up to max_in_flight at a time."""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import eventpipe
from eventpipe._http import Endpoint, ProviderError, post_json
from eventpipe.config import (
    ProviderConfig,
    build_embedding_provider,
    build_llm_provider,
    build_verdict_provider,
)
from eventpipe.gate import VerdictError
from eventpipe.model import Segment
from eventpipe.prompts import PromptBundle, PromptMessage
from eventpipe.retrieval import EmbeddingError, embed_texts

TESTS_DIR = Path(__file__).resolve().parent

# The transport tests never wait between attempts.
post = functools.partial(
    post_json, backoff=0.0, what="test endpoint", timeout=5.0, max_retries=1
)


class RawServer:
    """Loopback TCP server that answers each connection with ``reply(conn)``.

    Each connection runs on its own thread once its request has been read in
    full, so a reply can be any bytes at all, or none.
    """

    def __init__(self, reply):
        self.reply = reply
        self.connections = 0
        self.heads: list[bytes] = []  # the request line and headers of each request
        self.stop = threading.Event()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._threads: list[threading.Thread] = []
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._sock.getsockname()[1]}/"

    def _accept(self) -> None:
        self._sock.settimeout(0.05)
        while not self.stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            self.connections += 1
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(5)
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            head, body = data.split(b"\r\n\r\n", 1)
            self.heads.append(head)
            match = re.search(rb"(?i)content-length: *(\d+)", head)
            length = int(match.group(1)) if match else 0
            while len(body) < length:
                body += conn.recv(4096)
            self.reply(conn)

    def close(self) -> None:
        self.stop.set()
        self._accepter.join(timeout=5)
        self._sock.close()
        for thread in self._threads:
            thread.join(timeout=5)
        assert not self._accepter.is_alive()
        assert not any(thread.is_alive() for thread in self._threads)


@pytest.fixture
def raw_server():
    servers: list[RawServer] = []

    def start(reply) -> RawServer:
        servers.append(RawServer(reply))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def _refused_url() -> str:
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/"


def test_refused_port_is_a_transport_error():
    with pytest.raises(ProviderError) as info:
        post(_refused_url(), {}, max_retries=2)
    message = str(info.value)
    assert re.fullmatch(r"test endpoint failed after 2 attempts \(transport error: .+\)", message)


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"text\": ",
        b"garbage\r\n\r\n",
    ],
    ids=["closed-mid-body", "garbage-status-line"],
)
def test_broken_reply_is_retried_then_a_provider_error(raw_server, reply):
    server = raw_server(lambda conn: conn.sendall(reply))
    with pytest.raises(ProviderError, match=r"failed after 3 attempts \(transport error: "):
        post(server.url, {"x": 1}, max_retries=3)
    assert server.connections == 3


def test_read_timeout_is_retried(raw_server):
    server = raw_server(lambda conn: server.stop.wait(5))
    with pytest.raises(ProviderError, match=r"failed after 2 attempts \(transport error: "):
        post(server.url, {}, timeout=0.2, max_retries=2)
    assert server.connections == 2


def test_reply_that_is_not_json_keeps_its_message(raw_server):
    server = raw_server(
        lambda conn: conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
    )
    with pytest.raises(ProviderError) as info:
        post(server.url, {}, max_retries=3)
    assert str(info.value) == (
        "test endpoint returned non-JSON response: Expecting value: line 1 column 1 (char 0)"
    )
    assert server.connections == 1


@pytest.mark.parametrize("status", [400, 201])
def test_status_other_than_200_429_5xx_is_not_retried(http_server, status):
    http_server.default_response = (status, {"text": "ok"})
    with pytest.raises(ProviderError, match=f"^test endpoint returned HTTP {status}$"):
        post(http_server.url, {}, max_retries=3)
    assert len(http_server.requests) == 1


@pytest.mark.parametrize("status", [503, 429])
def test_retryable_status_is_tried_max_retries_times(http_server, status):
    http_server.default_response = (status, {})
    message = rf"^test endpoint failed after 3 attempts \(HTTP {status}\)$"
    with pytest.raises(ProviderError, match=message):
        post(http_server.url, {}, max_retries=3)
    assert len(http_server.requests) == 3


def test_payload_is_json_and_success_decodes(http_server):
    http_server.default_response = (200, {"text": "ok"})
    assert post(http_server.url, {"texts": ["café"]}, headers={"X-Extra": "1"}) == {"text": "ok"}
    (request,) = http_server.requests
    assert request["body"] == {"texts": ["café"]}
    headers = {k.lower(): v for k, v in request["headers"].items()}
    assert headers["content-type"] == "application/json"
    assert headers["x-extra"] == "1"
    assert headers["connection"] == "close"


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_not_followed(raw_server, status):
    elsewhere = raw_server(lambda conn: conn.sendall(b"HTTP/1.1 200 OK\r\n\r\n{}"))
    location = f"Location: {elsewhere.url}".encode()
    server = raw_server(
        lambda conn: conn.sendall(
            b"HTTP/1.1 %d Moved\r\n%s\r\nContent-Length: 0\r\n\r\n" % (status, location)
        )
    )
    with pytest.raises(ProviderError) as info:
        post(server.url, {}, headers={"Authorization": "Bearer sekret-value"}, max_retries=3)
    assert str(info.value) == f"test endpoint returned HTTP {status}"
    assert server.connections == 1
    assert b"Bearer sekret-value" in server.heads[0]
    assert elsewhere.connections == 0


@pytest.mark.parametrize(
    "url", ["localhost:8000/v1/chat", "127.0.0.1:8000/v1/chat", "file:///nowhere.json", "data:,{}"]
)
def test_endpoint_that_is_not_http_is_refused_before_any_attempt(url):
    with pytest.raises(ProviderError, match=r"^test endpoint endpoint must be an http or https URL"):
        post(url, {})


_PROXIED_CHILD = """
from eventpipe._http import ProviderError, post_json
try:
    post_json(
        "https://localhost/v1/chat", {}, headers={"Authorization": "Bearer sekret-value"},
        max_retries=2, backoff=0.0, timeout=5,
    )
except ProviderError as exc:
    print(exc)
"""


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs openssl to make a certificate")
def test_every_attempt_through_a_proxy_is_the_same(raw_server, tmp_path):
    # The proxy opens each tunnel itself and answers the request inside it
    # with a 503, so the request is retried through a second tunnel.
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True, timeout=60,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    inner_heads: list[bytes] = []

    def tunnel(conn):
        conn.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
        with context.wrap_socket(conn, server_side=True) as tls:
            data = b""
            while b"\r\n\r\n" not in data:
                data += tls.recv(4096)
            head, body = data.split(b"\r\n\r\n", 1)
            inner_heads.append(head)
            length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
            while len(body) < length:
                body += tls.recv(4096)
            tls.sendall(b"HTTP/1.1 503 Busy\r\nContent-Length: 0\r\n\r\n")

    proxy = raw_server(tunnel)
    env = {k: v for k, v in os.environ.items() if k.lower() not in ("no_proxy", "https_proxy")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROXIED_CHILD],
        capture_output=True,
        text=True,
        timeout=60,
        env={**env, "https_proxy": proxy.url.rstrip("/"), "SSL_CERT_FILE": str(cert),
             "PYTHONPATH": str(Path(eventpipe.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "provider failed after 2 attempts (HTTP 503)\n"
    assert proxy.connections == 2
    for head in proxy.heads:
        assert head.startswith(b"CONNECT localhost:443 ")
        assert b"sekret-value" not in head
    assert len(inner_heads) == 2
    for head in inner_heads:
        assert head.startswith(b"POST /v1/chat HTTP/1.1\r\n")
        assert b"Authorization: Bearer sekret-value" in head


# ---------------------------------------------------------------------------
# the three remote kinds

TEXTS = [f"t{i:02d}" for i in range(10)]  # batch_size 2 makes chunks of 2 texts


def _number(text: str) -> int:
    return int(text[1:])


def _texts(body) -> list[str]:
    """The texts a request carries: a batch's texts, or the words of a chat's message."""
    if "texts" in body:
        return body["texts"]
    return body["messages"][-1]["content"].split()


def _pairs(texts) -> list[str]:
    return [" ".join(texts[i : i + 2]) for i in range(0, len(texts), 2)]


class _Chat:
    """One conversation per request: run() completes one per pair of texts, all at once."""

    def __init__(self, url: str, **kwargs):
        config = ProviderConfig(kind="remote", endpoint=url, model="m", max_retries=1, **kwargs)
        self.provider = build_llm_provider(config)

    def run(self, texts):
        def complete(text: str) -> str:
            return self.provider.complete(
                PromptBundle(
                    (PromptMessage("system", "s"), PromptMessage("user", text)), "presence", "s1"
                )
            )

        with ThreadPoolExecutor(max_workers=5) as pool:
            return list(pool.map(complete, _pairs(texts)))

    @staticmethod
    def answer(texts):
        return {"text": " ".join(texts)}

    @staticmethod
    def expected(texts):
        return _pairs(texts)


class _Embed:
    error = EmbeddingError
    short_message = "embedding endpoint returned 1 vectors for 2 texts"
    provider_error = "embedding endpoint returned HTTP 400"

    def __init__(self, url: str, **kwargs):
        config = ProviderConfig(kind="remote", endpoint=url, max_retries=1, batch_size=2, **kwargs)
        self.provider = build_embedding_provider(config)

    def run(self, texts):
        return [vec.tolist() for vec in self.provider.embed_batch(texts)]

    @staticmethod
    def answer(texts):
        return {"vectors": [[float(_number(t)), 1.0] for t in texts]}

    @staticmethod
    def expected(texts):
        return [[float(_number(t)), 1.0] for t in texts]


class _Verdict:
    error = VerdictError
    short_message = (
        "learned-classifier endpoint returned 1 probabilities for 2 segments ('s02' to 's03')"
    )
    provider_error = "learned-classifier endpoint returned HTTP 400"

    def __init__(self, url: str, **kwargs):
        config = ProviderConfig(kind="remote", endpoint=url, max_retries=1, batch_size=2, **kwargs)
        self.provider = build_verdict_provider(config)

    def run(self, texts):
        segments = [Segment(id=f"s{_number(t):02d}", text=t) for t in texts]
        return self.provider.presence_probabilities(segments)

    @staticmethod
    def answer(texts):
        return {"probabilities": [_number(t) / 10 for t in texts]}

    @staticmethod
    def expected(texts):
        return [_number(t) / 10 for t in texts]


# Every kind, for what all three share; the kind fixture gives the two batched ones.
every_kind = pytest.mark.parametrize(
    "kind", [_Chat, _Embed, _Verdict], ids=["chat", "embed", "verdict"]
)


@pytest.fixture(params=[_Embed, _Verdict], ids=["embed", "verdict"])
def kind(request):
    return request.param


def _short(kind, texts, missing=1):
    """The kind's answer with its last values missing."""
    payload = kind.answer(texts)
    return {key: value[: len(value) - missing] for key, value in payload.items()}


def test_requests_overlap_up_to_max_in_flight(http_server, kind):
    # Every request waits until max_in_flight of them have arrived; posting
    # one at a time would break the barrier and get a 500.
    barrier = threading.Barrier(4, timeout=5)

    def respond(body):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return 500, {}
        return 200, kind.answer(body["texts"])

    http_server.responder = respond
    texts = TEXTS[:8]
    assert kind(http_server.url, max_in_flight=4).run(texts) == kind.expected(texts)
    assert len(http_server.requests) == 4


@pytest.mark.parametrize("max_in_flight", [1, 3])
@every_kind
def test_requests_in_flight_never_exceed_the_bound(http_server, kind, max_in_flight):
    lock = threading.Lock()
    state = {"open": 0, "peak": 0}

    def respond(body):
        with lock:
            state["open"] += 1
            state["peak"] = max(state["peak"], state["open"])
        time.sleep(0.02)
        with lock:
            state["open"] -= 1
        return 200, kind.answer(_texts(body))

    http_server.responder = respond
    assert kind(http_server.url, max_in_flight=max_in_flight).run(TEXTS) == kind.expected(TEXTS)
    assert len(http_server.requests) == 5
    assert 1 <= state["peak"] <= max_in_flight


@every_kind
def test_request_arrivals_are_spaced_min_interval_apart(http_server, kind):
    arrivals: list[float] = []

    def respond(body):
        arrivals.append(time.monotonic())
        return 200, kind.answer(_texts(body))

    http_server.responder = respond
    provider = kind(http_server.url, max_in_flight=5, min_interval=0.1)
    assert provider.run(TEXTS) == kind.expected(TEXTS)
    arrivals.sort()
    gaps = [later - earlier for earlier, later in zip(arrivals, arrivals[1:])]
    assert len(gaps) == 4
    # Requests leave min_interval apart; each arrival time adds the jitter of
    # one loopback send and one server thread wake-up, a few ms at most.
    assert min(gaps) >= 0.1 - 0.02


@every_kind
def test_api_key_arrives_and_never_appears_in_an_error(http_server, raw_server, monkeypatch, kind):
    texts = TEXTS[:2]
    monkeypatch.delenv("TEST_HTTP_KEY", raising=False)
    with pytest.raises(ProviderError, match="^environment variable TEST_HTTP_KEY is not set"):
        kind(http_server.url, api_key_env="TEST_HTTP_KEY").run(texts)
    assert http_server.requests == []

    monkeypatch.setenv("TEST_HTTP_KEY", "sekret-value")
    http_server.default_response = (200, kind.answer(texts))
    assert kind(http_server.url, api_key_env="TEST_HTTP_KEY").run(texts) == kind.expected(texts)
    assert http_server.requests[0]["headers"]["Authorization"] == "Bearer sekret-value"

    garbage = raw_server(lambda conn: conn.sendall(b"garbage\r\n\r\n"))
    for url, status in [
        (http_server.url, 400),
        (http_server.url, 503),
        (garbage.url, None),
        (_refused_url(), None),
    ]:
        if status is not None:
            http_server.default_response = (status, {})
        with pytest.raises(ProviderError) as info:
            kind(url, api_key_env="TEST_HTTP_KEY").run(texts)
        text = "".join(traceback.format_exception(info.type, info.value, info.tb))
        assert "sekret-value" not in text


def test_later_chunks_answered_first_come_back_in_text_order(http_server, kind):
    # Each chunk is answered only after the chunk behind it, so the last
    # chunk is answered first and the first chunk last.
    done = {first: threading.Event() for first in range(0, 10, 2)}
    answered: list[int] = []

    def respond(body):
        first = _number(body["texts"][0])
        if first + 2 in done:
            done[first + 2].wait(timeout=5)
        answered.append(first)
        done[first].set()
        return 200, kind.answer(body["texts"])

    http_server.responder = respond
    assert kind(http_server.url, max_in_flight=5).run(TEXTS) == kind.expected(TEXTS)
    assert answered == [8, 6, 4, 2, 0]


def test_bad_chunk_raises_its_own_message(http_server, kind):
    # Chunk 2 of 5 is one value short; chunk 4 is two short and answers
    # first. The error is chunk 2's, as if the chunks had been posted in order.
    def respond(body):
        first = _number(body["texts"][0])
        if first == 2:
            time.sleep(0.1)
            return 200, _short(kind, body["texts"])
        if first == 6:
            return 200, _short(kind, body["texts"], missing=2)
        return 200, kind.answer(body["texts"])

    http_server.responder = respond
    with pytest.raises(kind.error, match=f"^{re.escape(kind.short_message)}$"):
        kind(http_server.url, max_in_flight=4).run(TEXTS)


def test_failed_request_raises_the_provider_error(http_server, kind):
    def respond(body):
        return (400, {}) if _number(body["texts"][0]) == 2 else (200, kind.answer(body["texts"]))

    http_server.responder = respond
    with pytest.raises(ProviderError, match=f"^{re.escape(kind.provider_error)}$"):
        kind(http_server.url, max_in_flight=2).run(TEXTS)


def test_chunks_not_started_are_never_posted(http_server, kind):
    # The first chunk fails at once while the second is still open. Of the
    # three chunks after them, only one that a worker picked up before the
    # failure surfaced may be posted.
    def respond(body):
        if _number(body["texts"][0]) == 0:
            return 200, _short(kind, body["texts"])
        time.sleep(0.2)
        return 200, kind.answer(body["texts"])

    http_server.responder = respond
    with pytest.raises(kind.error):
        kind(http_server.url, max_in_flight=2).run(TEXTS)
    assert len(http_server.requests) <= 3


def test_stream_keeps_order_and_bounds_under_thread_switching(http_server):
    # Eight pool threads on a two-core machine, switching every microsecond,
    # with replies that come back in random order.
    rng = random.Random(5)
    delays = [rng.uniform(0, 0.004) for _ in range(120)]
    lock = threading.Lock()
    state = {"open": 0, "peak": 0}

    def respond(body):
        with lock:
            state["open"] += 1
            state["peak"] = max(state["peak"], state["open"])
        time.sleep(delays[body["i"]])
        with lock:
            state["open"] -= 1
        return 200, {"i": body["i"]}

    http_server.responder = respond
    endpoint = Endpoint(
        http_server.url, what="test endpoint", api_key_env=None, timeout=5.0,
        max_retries=1, max_in_flight=8, min_interval=0.0,
    )
    pulled: list[int] = []

    def payloads():
        for i in range(120):
            pulled.append(i)
            yield {"i": i}

    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        replies = endpoint.stream(payloads(), lambda i, reply: (i, reply["i"]))
        assert list(replies) == [(i, i) for i in range(120)]
        assert 1 <= state["peak"] <= 8

        # Closed after ten replies: no payload is taken or sent after that.
        pulled.clear()
        http_server.requests.clear()
        replies = endpoint.stream(payloads(), lambda i, reply: (i, reply["i"]))
        assert [next(replies) for _ in range(10)] == [(i, i) for i in range(10)]
        replies.close()
        sent = len(http_server.requests)
        assert 10 <= sent <= len(pulled) <= 10 + 8
        time.sleep(0.05)
        assert len(http_server.requests) == sent and len(pulled) <= 10 + 8
    finally:
        sys.setswitchinterval(interval)
    assert state["peak"] <= 8
    pool = [t for t in set(threading.enumerate()) - before if "ThreadPoolExecutor" in t.name]
    assert pool == []


def test_no_texts_make_no_request(http_server, kind):
    assert kind(http_server.url).run([]) == []
    assert http_server.requests == []


@pytest.mark.parametrize(
    "vector",
    [None, "0.5", 3.0, [], [True, 1.0], [1.0, None], [1.0, "2"], [[1.0], [2.0]],
     [float("nan"), 1.0], [1.0, float("inf")], [10**400, 1.0]],
    ids=["null", "string", "number", "empty", "bool", "null-entry", "string-entry", "nested",
         "nan", "inf", "huge-int"],
)
def test_embedding_that_is_not_a_list_of_finite_numbers_is_rejected(http_server, vector):
    def respond(body):
        vectors = _Embed.answer(body["texts"])["vectors"]
        if body["texts"][0] == "t02":
            vectors[1] = vector
        return 200, {"vectors": vectors}

    http_server.responder = respond
    message = "^embedding endpoint returned no vector of finite numbers for text 3$"
    with pytest.raises(EmbeddingError, match=message):
        embed_texts(TEXTS, _Embed(http_server.url, max_in_flight=2).provider)


def test_embedding_whose_norm_overflows_is_rejected(http_server):
    # Each entry is finite, but the norm is not: divided by it the vector
    # would come out all zeros.
    http_server.responder = lambda body: (200, {"vectors": [[1e308, 1e308]] * len(body["texts"])})
    with pytest.raises(EmbeddingError, match="^text 't00': embedding vector norm is not finite$"):
        embed_texts(TEXTS, _Embed(http_server.url).provider)


# ---------------------------------------------------------------------------
# no third-party HTTP client

_CHILD = """
import importlib, json, pkgutil, sys
sys.modules["requests"] = None  # any import of requests now fails
import eventpipe
for module in pkgutil.walk_packages(eventpipe.__path__, "eventpipe."):
    importlib.import_module(module.name)

import dataclasses
from pathlib import Path
from conftest import build_golden_corpus
from eventpipe.config import ProviderConfig
from eventpipe.pipeline import Pipeline
from test_pipeline import digests

chat, embed, verdict = sys.argv[1:4]
corpus = build_golden_corpus(Path(sys.argv[4]))
config = dataclasses.replace(
    corpus.config,
    learned=ProviderConfig(kind="remote", endpoint=verdict, batch_size=8),
    embedding=ProviderConfig(kind="remote", endpoint=embed, batch_size=5),
    llm_overrides={"presence": ProviderConfig(kind="remote", endpoint=chat, model="m")},
)
result = Pipeline(config).run()
print(json.dumps({"digests": digests(corpus.output_dir), "calls": result.provider_calls}))
"""


def _golden_responders() -> dict:
    """StubServer responders to the golden corpus's presence, embed and verdict requests."""
    from conftest import LEARNED_P, TRANSCRIPT_TEXTS, _mock_script
    from eventpipe.llm import ScriptedMockLlm
    from eventpipe.retrieval import HashedBagEmbedder

    segment_of = {text: sid for sid, text in TRANSCRIPT_TEXTS.items()}
    presence = ScriptedMockLlm(_mock_script())
    embedder = HashedBagEmbedder(dimension=64)

    def chat(body):
        messages = tuple(PromptMessage(m["role"], m["content"]) for m in body["messages"])
        text = messages[-1].content.removeprefix("TEXT: ")
        reply = presence.complete(PromptBundle(messages, "presence", segment_of[text]))
        return 200, {"choices": [{"message": {"content": reply}}]}

    return {
        "chat": chat,
        "embed": lambda body: (
            200, {"vectors": [v.tolist() for v in embedder.embed_batch(body["texts"])]}
        ),
        "verdict": lambda body: (
            200, {"probabilities": [LEARNED_P[segment_of[t]] for t in body["texts"]]}
        ),
    }


def test_golden_run_over_http_needs_no_third_party_client(tmp_path):
    from conftest import StubServer
    from test_pipeline import GOLDEN_DIGESTS

    responders = _golden_responders()
    servers = {}
    threads = []
    try:
        for name, responder in responders.items():
            servers[name] = StubServer()
            servers[name].responder = responder
            threads.append(threading.Thread(target=servers[name].serve_forever, args=(0.05,)))
            threads[-1].start()
        package_root = str(Path(eventpipe.__file__).parents[1])
        pythonpath = os.pathsep.join([package_root, str(TESTS_DIR)])
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, *(servers[n].url for n in responders),
             str(tmp_path / "corpus")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": pythonpath, "no_proxy": "127.0.0.1",
                 "NO_PROXY": "127.0.0.1"},
        )
    finally:
        for server in servers.values():
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert not any(thread.is_alive() for thread in threads)
    out = json.loads(proc.stdout)
    assert out["digests"] == GOLDEN_DIGESTS
    assert out["calls"] == {"argument": 13, "format": 1, "presence": 31, "trigger": 13, "total": 58}
    assert len(servers["verdict"].requests) == 4  # 30 segments, 8 per request
    assert sum(len(r["body"]["texts"]) for r in servers["embed"].requests) == 22
    assert len(servers["chat"].requests) == 31


def test_a_remote_chat_stage_runs_on_the_pool_beside_the_mock(tmp_path, monkeypatch, http_server):
    # The scripted mock answers in process, but the presence stage waits on
    # the loopback chat endpoint, so a run at workers=2 opens its pool and
    # sends each presence request from a pool thread.
    from conftest import build_golden_corpus
    from eventpipe.llm import HttpLlmProvider, ScriptedMockLlm
    from eventpipe.pipeline import Pipeline
    from test_pipeline import GOLDEN_DIGESTS, digests

    assert not ScriptedMockLlm.waits
    http_server.responder = _golden_responders()["chat"]
    threads = []
    complete = HttpLlmProvider.complete

    def recorded(provider, bundle):
        threads.append(threading.current_thread())
        return complete(provider, bundle)

    monkeypatch.setattr(HttpLlmProvider, "complete", recorded)
    corpus = build_golden_corpus(tmp_path / "corpus", workers=2)
    chat = ProviderConfig(kind="remote", endpoint=http_server.url, model="m")
    Pipeline(dataclasses.replace(corpus.config, llm_overrides={"presence": chat})).run()
    assert len(threads) == len(http_server.requests) == 31
    assert threading.main_thread() not in threads
    assert digests(corpus.output_dir) == GOLDEN_DIGESTS


def test_requests_is_not_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((TESTS_DIR.parent / "pyproject.toml").read_text(encoding="utf-8"))
    dependencies = project["project"]["dependencies"]
    names = [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0].lower() for dep in dependencies]
    assert "numpy" in names
    assert "requests" not in names
