"""One remote endpoint and the transport every remote request goes through.

``Endpoint`` holds all a remote service needs beyond its payloads: the URL,
the API key's environment variable, the timeout, the retries, the bound on
requests in flight and the pacing between them. The chat, embedding and
learned-verdict providers each send through one, a batch of payloads through
``Endpoint.stream``. ``post_json`` is the one function every request passes
through.

Each Endpoint keeps up to max_in_flight connections open between its
requests. ``http.client`` only opens them: the socket, a proxy's CONNECT
tunnel and TLS. The framing is the small HTTP/1.1 exchange below: each
request goes out in one send, and each reply is read through the one
buffered reader its connection keeps, its body by Content-Length, chunked,
or up to the close. Malformed replies raise ``http.client``'s own
exceptions. A connection is closed, not kept, after any outcome but a 200
reply read to its end that does not ask to close it and is not read up to
the close: another status, an HTTP/1.0 reply, a transport error, a timeout.
A kept connection that the server has closed meanwhile is sent its request
once more, on a new connection, without spending one of max_retries
attempts. After each request is sent the socket is set to TCP_QUICKACK where
the platform has it: a server that writes a reply's head and body in two
sends, as ``http.server`` does, would otherwise hold the body back for the
client's delayed ack, about 40 ms per reused request.
"""
from __future__ import annotations

import base64
import http.client
import io
import json
import os
import re
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
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TypeVar

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
    which close as it returns. A URL with a control character, which
    http.client refuses, raises ProviderError before any attempt. Retries
    transport errors and 5xx/429 responses up to max_retries attempts with
    linear backoff; any other status but 200, a redirect included, raises
    ProviderError immediately.
    """
    scheme = urllib.parse.urlsplit(url).scheme
    if scheme not in ("http", "https"):
        raise ProviderError(f"{what} endpoint must be an http or https URL, got scheme {scheme!r}")
    if _URL_CONTROL.search(url):
        raise ProviderError(f"{what} URL holds a control character")
    if pool is None:
        pool = _Pool(url, timeout)
    body = json.dumps(payload).encode("utf-8")
    request = pool.request(
        body, {"Content-Type": "application/json", **pool.headers, **(headers or {})}
    )
    last_error: str = "no attempt made"
    for attempt in range(1, max_retries + 1):
        try:
            status, reply = pool.exchange(request)
        except (OSError, http.client.HTTPException) as exc:
            # OSError covers refused connections and timeouts; HTTPException
            # (a truncated body, a garbage status line) is not an OSError.
            last_error = f"transport error: {exc}"
        else:
            if status == 200:
                try:
                    return json.loads(reply)
                except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                    raise ProviderError(f"{what} returned non-JSON response: {exc}") from exc
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
            else:
                raise ProviderError(f"{what} returned HTTP {status}")
        if attempt < max_retries:
            time.sleep(backoff * attempt)
    raise ProviderError(f"{what} failed after {max_retries} attempts ({last_error})")


# A reused connection the server has already closed fails as one of these
# while the request is sent or before the reply's status line is read
# (http.client.RemoteDisconnected is a ConnectionResetError; a TLS
# connection closed without close_notify raises ssl.SSLEOFError).
_STALE = (BrokenPipeError, ConnectionResetError, ssl.SSLEOFError)
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
# http.client's caps: the bytes of one status, header or chunk-size line, and
# the header lines of one reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A header line as http.client lets one out: a name with no colon or line
# break that starts with no space, and a value with no line break.
_HEADER_LINE = re.compile(r"[^:\s][^:\r\n]*: [^\r\n]*")
# The characters http.client refuses in a request's target or host.
_URL_CONTROL = re.compile(r"[\x00-\x20\x7f]")


class _Connection(NamedTuple):
    """An open connection: its socket, and the one reader of every reply it carries."""

    sock: socket.socket
    reader: io.BufferedReader

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _Pool:
    """The open connections to one URL that are not in use.

    ``http.client`` only opens a connection: a socket with TCP_NODELAY,
    through the proxy that http_proxy or https_proxy names for the URL's
    scheme unless no_proxy covers its host, and with TLS, its SNI and its
    certificate check for an https URL. An https request tunnels through
    the proxy with CONNECT; a plain-http one sends the proxy the absolute
    URL. Each request then goes out in one send, and each reply is read
    through the reader made when its connection opened. Nothing follows a
    redirect or reads ~/.netrc. list.append and list.pop are atomic, so
    threads share ``idle`` without a lock. The idle connections close when
    the pool is collected, or at exit: none outlives its owner.
    """

    def __init__(self, url: str, timeout: float):
        parts = urllib.parse.urlsplit(url)
        self.idle: list[_Connection] = []
        weakref.finalize(self, _close_all, self.idle)
        self.headers: dict[str, str] = {}  # added to each request: a plain-http proxy's login
        self._timeout = timeout
        self._connection = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._host = parts.netloc
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
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
                target, self.headers = url, login
        # The request line and the headers every request starts with. Host
        # names the URL's host whether or not a proxy carries the request.
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {parts.netloc}\r\nAccept-Encoding: identity\r\n"
        )

    def request(self, body: bytes, headers: dict[str, str]) -> bytes:
        """The bytes of one POST of body with headers.

        A header name or value that would break its line raises ValueError,
        as http.client refuses it.
        """
        lines = [self._head, f"Content-Length: {len(body)}\r\n"]
        for name, value in headers.items():
            line = f"{name}: {value}"
            if not _HEADER_LINE.fullmatch(line):
                raise ValueError(f"invalid header {name!r}")
            lines.append(line + "\r\n")
        lines.append("\r\n")
        return "".join(lines).encode("latin-1") + body

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send request on an idle or a new connection; return the status and a 200's body.

        The connection is kept only after a 200 reply read to its end that
        neither closes it nor is read up to the close: it goes back to
        ``idle``. Every other outcome closes it. A reused connection that
        the server has closed is sent the request once more, on a new one.
        """
        try:
            conn = self.idle.pop()
            reused = True
        except IndexError:
            conn = self._connect()
            reused = False
        keep = False
        try:
            try:
                status, length, chunked, close = _ask(conn, request)
            except _STALE:
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                status, length, chunked, close = _ask(conn, request)
            if status != 200:
                return status, b""
            reply = _read_body(conn.reader, length, chunked)
            keep = not close and (chunked or length is not None)
            return status, reply
        finally:
            if keep:
                self.idle.append(conn)
            else:
                conn.close()

    def _connect(self) -> _Connection:
        conn = self._connection(self._host, timeout=self._timeout)
        if self._tunnel:
            host, login = self._tunnel
            conn.set_tunnel(host, headers=login)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        return _Connection(conn.sock, conn.sock.makefile("rb"))


def _ask(conn: _Connection, request: bytes) -> tuple[int, int | None, bool, bool]:
    """Send request and read its reply's head, after any 1xx replies.

    Returns the status, the Content-Length (None if there is none), whether
    the body is chunked and whether the connection closes after this reply.
    """
    conn.sock.sendall(request)
    if _QUICKACK is not None:
        # Ack the reply's first segment at once. A server that writes the
        # head and the body in two sends otherwise waits for the delayed ack
        # (about 40 ms) before Nagle's algorithm lets the body go.
        conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    while True:
        line = _read_line(conn.reader, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, status, *_ = line.split(None, 2) + [b"", b""]
        try:
            code = int(status)
        except ValueError:
            code = 0
        if not version.startswith(b"HTTP/") or not 100 <= code <= 999:
            raise http.client.BadStatusLine(str(line, "iso-8859-1"))
        if not version.startswith(b"HTTP/1."):
            raise http.client.UnknownProtocol(str(version, "iso-8859-1"))
        fields: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _read_line(conn.reader, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            fields.setdefault(name.strip().lower(), value.strip())
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        if code >= 200:
            break
    chunked = fields.get(b"transfer-encoding", b"").lower() == b"chunked"
    length = fields.get(b"content-length", b"")
    length = int(length) if length.isdigit() and not chunked else None
    close = version == b"HTTP/1.0" or b"close" in fields.get(b"connection", b"").lower()
    return code, length, chunked, close


def _read_body(reader: io.BufferedReader, length: int | None, chunked: bool) -> bytes:
    """A reply's body: chunked, of length bytes, or, with neither, up to the close."""
    if not chunked:
        return reader.read() if length is None else _read_exact(reader, length)
    chunks = []
    while size := _chunk_size(reader, chunks):
        chunks.append(_read_exact(reader, size))
        _read_exact(reader, 2)  # the CRLF after the chunk
    while _read_line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _chunk_size(reader: io.BufferedReader, chunks: list[bytes]) -> int:
    """The next chunk's size; a size line that is no hex number cuts the body off."""
    line = _read_line(reader, "chunk size").partition(b";")[0]
    try:
        size = int(line, 16)
    except ValueError:
        size = -1
    if size < 0:
        raise http.client.IncompleteRead(b"".join(chunks))
    return size


def _read_exact(reader: io.BufferedReader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_line(reader: io.BufferedReader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _close_all(connections: list[_Connection]) -> None:
    for conn in connections:
        conn.close()
