"""Shared HTTP plumbing for the remote provider clients."""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

import requests

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

    Retries transport errors and 5xx/429 responses up to max_retries attempts
    with linear backoff; anything else raises ProviderError immediately.
    """
    last_error: str = "no attempt made"
    for attempt in range(1, max_retries + 1):
        try:
            resp = requests.post(url, json=payload, timeout=timeout, headers=headers)
        except requests.RequestException as exc:
            last_error = f"transport error: {exc}"
        else:
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise ProviderError(f"{what} returned non-JSON response: {exc}") from exc
            if resp.status_code in (429,) or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
            else:
                raise ProviderError(f"{what} returned HTTP {resp.status_code}")
        if attempt < max_retries:
            time.sleep(backoff * attempt)
    raise ProviderError(f"{what} failed after {max_retries} attempts ({last_error})")


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
