"""Remote batches: embedding and verdict chunks posted up to max_in_flight at a time."""
from __future__ import annotations

import re
import threading
import time

import pytest

from eventpipe._http import ProviderError
from eventpipe.gate import HttpVerdictProvider, VerdictError
from eventpipe.model import Segment
from eventpipe.retrieval import EmbeddingError, HttpEmbeddingProvider

TEXTS = [f"t{i:02d}" for i in range(10)]  # batch_size 2 makes chunks of 2 texts


def _number(text: str) -> int:
    return int(text[1:])


class _Embed:
    error = EmbeddingError
    short_message = "embedding endpoint returned 1 vectors for 2 texts"
    provider_error = "embedding endpoint returned HTTP 400"

    def __init__(self, url: str, **kwargs):
        self.provider = HttpEmbeddingProvider(url, max_retries=1, batch_size=2, **kwargs)

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
        self.provider = HttpVerdictProvider(url, max_retries=1, batch_size=2, **kwargs)

    def run(self, texts):
        segments = [Segment(id=f"s{_number(t):02d}", text=t) for t in texts]
        return self.provider.presence_probabilities(segments)

    @staticmethod
    def answer(texts):
        return {"probabilities": [_number(t) / 10 for t in texts]}

    @staticmethod
    def expected(texts):
        return [_number(t) / 10 for t in texts]


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
        return 200, kind.answer(body["texts"])

    http_server.responder = respond
    assert kind(http_server.url, max_in_flight=max_in_flight).run(TEXTS) == kind.expected(TEXTS)
    assert len(http_server.requests) == 5
    assert 1 <= state["peak"] <= max_in_flight


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


def test_no_texts_make_no_request(http_server, kind):
    assert kind(http_server.url).run([]) == []
    assert http_server.requests == []
