"""One remote endpoint and the transport every remote request goes through.

``Endpoint`` holds all a remote service needs beyond its payloads: the URL,
the API key's environment variable, the timeout, the retries, the bound on
requests in flight and the pacing between them. The chat, embedding and
learned-verdict providers each send through one, a batch of payloads through
``Endpoint.stream``. ``post_json`` is the one function every request passes
through.
"""
from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import KW_ONLY, dataclass
from typing import Any, Callable, Iterable, Iterator, TypeVar

__all__ = ["Endpoint", "ProviderError", "post_json"]

T = TypeVar("T")


class ProviderError(RuntimeError):
    """A remote provider failed after bounded retries."""


@dataclass
class Endpoint:
    """A remote service: where it is, how to authenticate, and how hard to press it.

    The API key is read from the environment variable api_key_env when a call
    starts and appears only in the Authorization header, never in an id, a
    log or an error; an unset variable fails before any request is sent. At
    most max_in_flight requests are open at once, and their starts are spaced
    at least min_interval seconds apart. what names the service in errors.

    ``stream`` posts many payloads through one bounded window.
    """

    url: str
    _: KW_ONLY
    what: str
    api_key_env: str | None
    timeout: float
    max_retries: int
    max_in_flight: int
    min_interval: float

    def __post_init__(self):
        self._slots = threading.Semaphore(self.max_in_flight)
        self._pace_lock = threading.Lock()
        self._last_start = 0.0

    def _headers(self) -> dict[str, str] | None:
        if not self.api_key_env:
            return None
        key = os.environ.get(self.api_key_env)
        if not key:
            raise ProviderError(
                f"environment variable {self.api_key_env} is not set (API key required)"
            )
        return {"Authorization": f"Bearer {key}"}

    def _send(self, payload: dict[str, Any], headers: dict[str, str] | None) -> Any:
        with self._slots:
            if self.min_interval > 0:
                with self._pace_lock:
                    wait = self._last_start + self.min_interval - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                    self._last_start = time.monotonic()
            return post_json(
                self.url,
                payload,
                timeout=self.timeout,
                max_retries=self.max_retries,
                headers=headers,
                what=self.what,
            )

    def post(self, payload: dict[str, Any]) -> Any:
        """POST one payload and return the decoded JSON reply."""
        return self._send(payload, self._headers())

    def stream(
        self, payloads: Iterable[dict[str, Any]], parse: Callable[[int, Any], T]
    ) -> Iterator[T]:
        """POST every payload and yield ``parse(i, reply)`` of each, in payload order.

        Each worker runs ``parse(i, reply)`` on the decoded reply of payload i,
        so a raw reply lives only until its worker has turned it into a
        result. Payloads are taken from the iterable only as the window has
        room: at most max_in_flight + 1 submitted and not yet yielded, so
        max_in_flight requests stay open while one finished reply waits for
        the caller, and a caller that works on each reply keeps every slot
        busy. The error raised is the one of the earliest failing payload.
        Any error, or closing the generator, shuts the pool down: payloads
        not yet started are never sent, and the requests already open are
        waited for. So when the stream fails at a reply, or the caller stops
        at one, up to max_in_flight later payloads may already have been
        sent, and none is sent after that.
        """
        headers: dict[str, str] | None = None
        window: deque[Future[T]] = deque()
        pool = ThreadPoolExecutor(max_workers=self.max_in_flight)

        def call(i: int, payload: dict[str, Any]) -> T:
            return parse(i, self._send(payload, headers))

        try:
            for i, payload in enumerate(payloads):
                if i == 0:
                    headers = self._headers()
                window.append(pool.submit(call, i, payload))
                if len(window) > self.max_in_flight:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


def post_json(
    url: str,
    payload: dict[str, Any],
    *,
    timeout: float,
    max_retries: int,
    headers: dict[str, str] | None = None,
    what: str = "provider",
    backoff: float = 0.5,
) -> Any:
    """POST JSON and return the decoded JSON response, retrying transient failures.

    Each attempt opens one connection (urllib sends ``Connection: close``).
    Retries transport errors and 5xx/429 responses up to max_retries attempts
    with linear backoff; any other status but 200, a redirect included,
    raises ProviderError immediately.
    """
    scheme = urllib.parse.urlsplit(url).scheme
    if scheme not in ("http", "https"):
        raise ProviderError(f"{what} endpoint must be an http or https URL, got scheme {scheme!r}")
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", **(headers or {})}
    last_error: str = "no attempt made"
    for attempt in range(1, max_retries + 1):
        try:
            # A fresh Request per attempt: a proxy handler rewrites the one it sends.
            request = urllib.request.Request(url, data=body, headers=headers, method="POST")
            status, reply = _post_once(request, timeout)
        except (OSError, http.client.HTTPException) as exc:
            # OSError covers URLError and timeouts; HTTPException (a truncated
            # body, a garbage status line) is not an OSError.
            last_error = f"transport error: {exc}"
        else:
            if status == 200:
                try:
                    return json.loads(reply)
                except ValueError as exc:
                    raise ProviderError(f"{what} returned non-JSON response: {exc}") from exc
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
            else:
                raise ProviderError(f"{what} returned HTTP {status}")
        if attempt < max_retries:
            time.sleep(backoff * attempt)
    raise ProviderError(f"{what} failed after {max_retries} attempts ({last_error})")


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follow no redirect, so the 3xx reply itself ends as an HTTPError.

    urllib would turn a redirected POST into a GET without a body and carry
    every header, the API key's too, to whatever host the reply names.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


_OPENER = urllib.request.build_opener(_NoRedirect)


def _post_once(request: urllib.request.Request, timeout: float) -> tuple[int, bytes]:
    """Send one request and return its status and, for a 2xx reply, its body."""
    try:
        with _OPENER.open(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        # urllib raises for statuses outside 2xx; only the status matters.
        exc.close()
        return exc.code, b""

