"""One remote endpoint and the transport every remote request goes through.

``Endpoint`` holds all a remote service needs beyond its payloads: the URL,
the API key's environment variable, the timeout, the retries, the bound on
requests in flight and the pacing between them. The chat, embedding and
learned-verdict providers each send through one, a batch of payloads through
``Endpoint.stream``. ``post_json`` is the one function every request passes
through.

Each Endpoint keeps up to max_in_flight ``http.client`` connections open
between its requests. A connection is closed, not kept, after any outcome but
a 200 reply read to its end that does not ask to close it: another status, a
transport error, a timeout. A kept connection that the server has closed
meanwhile is sent its request once more, on a new connection, without
spending one of max_retries attempts. After each request is sent the socket
is set to TCP_QUICKACK where the platform has it: a server that writes a
reply's head and body in two sends, as ``http.server`` does, would otherwise
hold the body back for the client's delayed ack, about 40 ms per reused
request.
"""
from __future__ import annotations

import base64
import http.client
import json
import os
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
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
    at least min_interval seconds apart; as many connections stay open
    between requests, and close when the Endpoint is collected. what names
    the service in errors.

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
        self._pool = _Pool(self.url, self.timeout)

    def _headers(self) -> dict[str, str] | None:
        if not self.api_key_env:
            return None
        key = os.environ.get(self.api_key_env)
        if not key:
            raise ProviderError(
                f"environment variable {self.api_key_env} is not set (API key required)"
            )
        if not key.isprintable():
            # http.client would refuse the header with its value, the key, in the message.
            raise ProviderError(
                f"environment variable {self.api_key_env} holds a control character"
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
                pool=self._pool,
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
    pool: _Pool | None = None,
) -> Any:
    """POST JSON and return the decoded JSON response, retrying transient failures.

    Each attempt goes out on a connection of pool, the one an Endpoint keeps
    open between requests; without one, on connections made for this call,
    which close as it returns. Retries transport errors and 5xx/429
    responses up to max_retries attempts with linear backoff; any other
    status but 200, a redirect included, raises ProviderError immediately.
    """
    scheme = urllib.parse.urlsplit(url).scheme
    if scheme not in ("http", "https"):
        raise ProviderError(f"{what} endpoint must be an http or https URL, got scheme {scheme!r}")
    if pool is None:
        pool = _Pool(url, timeout)
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", **pool.headers, **(headers or {})}
    last_error: str = "no attempt made"
    for attempt in range(1, max_retries + 1):
        try:
            status, reply = pool.exchange(body, headers)
        except (OSError, http.client.HTTPException) as exc:
            # OSError covers refused connections and timeouts; HTTPException
            # (a truncated body, a garbage status line) is not an OSError.
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


# A reused connection the server has already closed fails as one of these
# while the request is sent or before the reply's head is read
# (http.client.RemoteDisconnected is a ConnectionResetError; a TLS
# connection closed without close_notify raises ssl.SSLEOFError).
_STALE = (BrokenPipeError, ConnectionResetError, ssl.SSLEOFError)
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class _Pool:
    """The http.client connections to one URL that are not in use.

    A connection is made through the proxy that http_proxy or https_proxy
    names for the URL's scheme, unless no_proxy covers its host: an https
    request tunnels through the proxy with CONNECT, a plain-http one sends
    the proxy the absolute URL. http.client follows no redirect and reads no
    ~/.netrc. list.append and list.pop are atomic, so threads share ``idle``
    without a lock. The idle connections close when the pool is collected,
    or at exit: none outlives its owner.
    """

    def __init__(self, url: str, timeout: float):
        parts = urllib.parse.urlsplit(url)
        self.idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self.idle)
        self.headers: dict[str, str] = {}  # added to each request: a plain-http proxy's login
        self._timeout = timeout
        self._connection = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._host = parts.netloc
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._tunnel: tuple[str, dict[str, str]] | None = None  # host and CONNECT headers
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            login = {}
            if proxy_parts.username and proxy_parts.password:
                user = urllib.parse.unquote(proxy_parts.username)
                password = urllib.parse.unquote(proxy_parts.password)
                basic = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                login["Proxy-Authorization"] = f"Basic {basic}"
            self._host = proxy_parts.netloc.rpartition("@")[2]
            if parts.scheme == "https":
                self._tunnel = (parts.netloc, login)
            else:
                self._target, self.headers = url, login

    def exchange(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST body on an idle or a new connection; return the status and a 200's body.

        The connection stays open only after a 200 reply read to its end that
        does not close it; every other outcome closes it. Either way it goes
        back to ``idle``, and a closed one connects again at its next
        request. A reused connection that the server has closed is sent the
        request once more, on a new connection.
        """
        try:
            conn = self.idle.pop()
        except IndexError:
            conn = self._connection(self._host, timeout=self._timeout)
            if self._tunnel:
                host, login = self._tunnel
                conn.set_tunnel(host, headers=login)
        keep = False
        try:
            reused = conn.sock is not None
            try:
                response = self._request(conn, body, headers)
            except _STALE:
                if not reused:
                    raise
                conn.close()
                response = self._request(conn, body, headers)
            with response:
                reply = response.read() if response.status == 200 else b""
            keep = response.status == 200 and not response.will_close
            return response.status, reply
        finally:
            if not keep:
                conn.close()
            self.idle.append(conn)

    def _request(
        self, conn: http.client.HTTPConnection, body: bytes, headers: dict[str, str]
    ) -> http.client.HTTPResponse:
        conn.request("POST", self._target, body, headers)
        if _QUICKACK is not None:
            # Ack the reply's first segment at once. A server that writes the
            # head and the body in two sends otherwise waits for the delayed
            # ack (about 40 ms) before Nagle's algorithm lets the body go.
            conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return conn.getresponse()


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for conn in connections:
        conn.close()
