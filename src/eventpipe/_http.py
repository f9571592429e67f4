"""Shared HTTP plumbing for the remote provider clients."""
from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["ProviderError", "post_batches", "post_json"]

T = TypeVar("T")


class ProviderError(RuntimeError):
    """A remote provider failed after bounded retries."""


def post_json(
    url: str,
    payload: dict[str, Any],
    *,
    timeout: float = 30.0,
    max_retries: int = 3,
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


def post_batches(
    url: str,
    payloads: Sequence[dict[str, Any]],
    parse: Callable[[int, Any], T],
    *,
    max_in_flight: int,
    timeout: float = 30.0,
    max_retries: int = 3,
    what: str = "provider",
) -> list[T]:
    """POST every payload, at most max_in_flight at a time; results in payload order.

    Each worker runs ``parse(i, reply)`` on the decoded reply of payload i, so
    a raw reply lives only until its worker has turned it into a result. The
    error raised is the one of the earliest failing payload; payloads not yet
    started when it surfaces are never sent.
    """
    if not payloads:
        return []

    def call(i: int) -> T:
        reply = post_json(url, payloads[i], timeout=timeout, max_retries=max_retries, what=what)
        return parse(i, reply)

    pool = ThreadPoolExecutor(max_workers=min(max_in_flight, len(payloads)))
    try:
        futures = [pool.submit(call, i) for i in range(len(payloads))]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
