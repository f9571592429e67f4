"""Support-set embedding and exact top-k cosine retrieval of few-shot examples.

The index is a flat scan, and it is exact: a query's score for a row is
``float(np.dot(row, query))`` and ties break by ascending example id, so
retrieval is deterministic, which the golden-run tests rely on. A search runs
in two phases and takes milliseconds over ~19k rows:

1. One ``np.einsum`` mat-vec gives every candidate row (every row, or the
   rows of a mask) an approximate score. Its summation order differs from the
   per-row ``np.dot``, so its scores may differ in the last bits.
2. The two scores of a row differ by at most a proven forward-error bound
   (about ``2 * gamma_D * max|row| * |query|``). Every row whose approximate
   score is within twice that bound of the k-th best approximate score is
   rescored with ``np.dot``, and only those rows are sorted. A row left out
   is beaten by k rows under ``np.dot`` too, so it cannot be in the top k.

The scan goes through einsum, numpy's own single-threaded loop, not through
BLAS: a BLAS mat-vec (``@``, ``np.dot`` or ``np.matmul`` on the matrix) wakes
the BLAS thread pool, whose threads busy-wait between calls and cost more
CPU than the scan saves.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

import numpy as np

from .model import (
    DatasetError,
    EventMention,
    check_rows,
    iter_json_records,
    write_rows,
)

if TYPE_CHECKING:  # pragma: no cover
    from ._http import Endpoint

__all__ = [
    "EmbeddingError",
    "EmbeddingProvider",
    "FewShotExample",
    "HashedBagEmbedder",
    "HttpEmbeddingProvider",
    "SupportIndex",
    "build_index",
    "embed_texts",
    "load_index",
    "save_index",
    "search",
]

DEFAULT_DIMENSION = 384
_NORM_TOL = 1e-6
_SCAN_CHUNK = 4096  # masked rows gathered per einsum call: 12 MB at 384 dimensions


class EmbeddingError(RuntimeError):
    """Embedding failed: provider error, zero vector, or dimension mismatch."""


class EmbeddingProvider(Protocol):
    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        ...


class HashedBagEmbedder:
    """Deterministic offline embedder: hashed bag-of-tokens projected to D dims.

    Each token of the normalized text lands in a bucket chosen by a stable
    digest, with a digest-chosen sign, and the count vector is L2-normalized.
    Similar token bags get similar vectors, which is all the retrieval tests
    need; no model weights are involved.

    Each instance memoizes the bucket and sign of every distinct token it has
    seen, so a support set hashes its vocabulary once rather than every token
    occurrence. A batch becomes one count matrix built by ``np.bincount``:
    every entry is a sum of +1s and -1s, an exact integer in float64, so the
    vectors are bit-identical to adding the tokens one by one in any order.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise EmbeddingError(f"dimension must be positive, got {dimension}")
        self.dimension = dimension
        self._codes: dict[str, int] = {}  # token -> bucket, or ~bucket for sign -1

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:8], "big") % self.dimension
        sign = 1.0 if digest[8] & 1 else -1.0
        return idx, sign

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        codes = self._codes
        # Equal to normalize(text).split(): lower() keeps whitespace as it is
        # and never makes any, and no whitespace is cased or case-ignorable, so
        # the final-sigma rule of lower() never looks across a whitespace run.
        tokens = [text.lower().split() for text in texts]
        flat = list(itertools.chain.from_iterable(tokens))
        # Pool threads may fill the memo at once without a lock: entries are
        # never removed, and a token's entry is the same whoever writes it.
        for token in set(flat).difference(codes):
            idx, sign = self._bucket(token)
            codes[token] = idx if sign > 0 else ~idx
        code = np.fromiter(map(codes.__getitem__, flat), dtype=np.int64, count=len(flat))
        negative = code < 0
        rows = np.repeat(np.arange(len(texts)), [len(row) for row in tokens])
        counts = np.bincount(
            rows * self.dimension + np.where(negative, ~code, code),
            weights=np.where(negative, -1.0, 1.0),
            minlength=len(texts) * self.dimension,
        )
        # bincount returns integers when no text has a token.
        return list(counts.astype(np.float64, copy=False).reshape(len(texts), self.dimension))


class HttpEmbeddingProvider:
    """Remote embedding endpoint: POST {"texts": [...]} -> {"vectors": [[...]]}.

    Texts are posted batch_size per request through the Endpoint, and the
    vectors come back in text order. Each vector must be a non-empty list of
    finite JSON numbers.
    """

    def __init__(self, endpoint: Endpoint, batch_size: int):
        self.endpoint = endpoint
        self.batch_size = batch_size

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        chunks = [
            list(texts[i : i + self.batch_size]) for i in range(0, len(texts), self.batch_size)
        ]

        def parse(i: int, payload) -> list[np.ndarray]:
            chunk = chunks[i]
            vectors = payload.get("vectors") if isinstance(payload, dict) else None
            if not isinstance(vectors, list) or len(vectors) != len(chunk):
                raise EmbeddingError(
                    f"embedding endpoint returned {0 if not isinstance(vectors, list) else len(vectors)} "
                    f"vectors for {len(chunk)} texts"
                )
            first = i * self.batch_size
            return [_reply_vector(v, first + j) for j, v in enumerate(vectors)]

        parts = self.endpoint.post_batches([{"texts": chunk} for chunk in chunks], parse)
        return [vec for part in parts for vec in part]


def _reply_vector(value, position: int) -> np.ndarray:
    """A reply's vector as float64: a non-empty list of finite JSON numbers, or EmbeddingError."""
    # type() rather than isinstance: a JSON boolean is a bool, which isinstance takes for an int.
    if isinstance(value, list) and value and set(map(type, value)) <= {int, float}:
        try:
            vec = np.fromiter(value, np.float64, len(value))
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(vec).all():
                return vec
    raise EmbeddingError(
        f"embedding endpoint returned no vector of finite numbers for text {position}"
    )


def _unit(vec: np.ndarray, what: str) -> np.ndarray:
    """vec scaled to unit norm; a zero or non-finite norm is an EmbeddingError.

    numpy warns when the norm overflows; callers silence that once per batch.
    """
    norm = float(np.linalg.norm(vec))
    if norm <= _NORM_TOL:
        raise EmbeddingError(f"{what}: zero embedding vector")
    if not math.isfinite(norm):
        raise EmbeddingError(f"{what}: embedding vector norm is not finite")
    return vec / norm


def embed_texts(texts: Sequence[str], embedding_provider: EmbeddingProvider) -> list[np.ndarray]:
    """Embed texts with one embed_batch call, each to a unit-norm vector."""
    vecs = embedding_provider.embed_batch(list(texts))
    if len(vecs) != len(texts):
        raise EmbeddingError(
            f"embedding provider returned {len(vecs)} vectors for {len(texts)} texts"
        )
    with np.errstate(over="ignore"):  # an overflowing norm is reported by _unit
        return [_unit(vec, f"text {text[:40]!r}") for text, vec in zip(texts, vecs)]


@dataclass(frozen=True)
class FewShotExample:
    """A support-set item: transcript text plus its gold events."""

    example_id: str
    text: str
    gold_events: tuple[EventMention, ...] = ()


@dataclass(frozen=True)
class SupportIndex:
    """Immutable flat index over the support set. Vectors are row-aligned with ids."""

    example_ids: tuple[str, ...]
    vectors: np.ndarray  # (N, D) float64, unit rows
    examples: tuple[FewShotExample, ...]

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.example_ids)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Row position of each example id."""
        return {example_id: row for row, example_id in enumerate(self.example_ids)}

    @cached_property
    def _type_masks(self) -> dict[str, np.ndarray]:
        rows: dict[str, list[int]] = {}
        for row, ex in enumerate(self.examples):
            for event_type in {ev.event_type for ev in ex.gold_events}:
                rows.setdefault(event_type, []).append(row)
        masks = {}
        for event_type, type_rows in rows.items():
            masks[event_type] = np.zeros(len(self), dtype=bool)
            masks[event_type][type_rows] = True
        return masks

    def type_mask(self, event_types: Iterable[str]) -> np.ndarray:
        """Boolean row mask: examples with a gold event of any of the given types."""
        mask = np.zeros(len(self), dtype=bool)
        for event_type in set(event_types):
            if event_type in self._type_masks:
                mask |= self._type_masks[event_type]
        return mask

    @cached_property
    def _max_row_square(self) -> float:
        return float(np.einsum("ij,ij->i", self.vectors, self.vectors).max())


def build_index(
    examples: Sequence[FewShotExample],
    embedding_provider: EmbeddingProvider,
    *,
    batch_size: int = 256,
) -> SupportIndex:
    """Embed every support example and assemble the flat index.

    Repeatable: the same examples and provider produce identical contents.
    Each row is made unit-norm by ``_unit``, one row at a time (a vectorized
    norm can round differently for arbitrary float embeddings), and written
    straight into one preallocated (N, D) matrix, so the support set is held
    once and never stacked.
    """
    if not examples:
        raise EmbeddingError("cannot build an index over an empty support set")
    seen: set[str] = set()
    for ex in examples:
        if ex.example_id in seen:
            raise EmbeddingError(f"duplicate example_id {ex.example_id!r}")
        seen.add(ex.example_id)
    matrix: np.ndarray | None = None
    dims: set[int] = set()
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        vecs = embedding_provider.embed_batch([ex.text for ex in chunk])
        if len(vecs) != len(chunk):
            raise EmbeddingError(
                f"embedding provider returned {len(vecs)} vectors for {len(chunk)} texts"
            )
        with np.errstate(over="ignore"):  # an overflowing norm is reported by _unit
            for row, (ex, vec) in enumerate(zip(chunk, vecs), start):
                unit = _unit(np.asarray(vec, dtype=np.float64), f"example {ex.example_id!r}")
                dims.add(unit.shape[0])
                if matrix is None:
                    matrix = np.empty((len(examples), unit.shape[0]))
                if unit.shape == matrix.shape[1:]:
                    matrix[row] = unit
    if len(dims) != 1:
        raise EmbeddingError(f"embedding dimension mismatch across examples: {sorted(dims)}")
    matrix.setflags(write=False)
    return SupportIndex(
        example_ids=tuple(ex.example_id for ex in examples),
        vectors=matrix,
        examples=tuple(examples),
    )


def _dot_error_bound(dimension: int, max_row_square: float, query_square: float) -> float:
    """Bound on |computed - exact| for a D-term float64 dot product, any summation order.

    Each product and partial sum rounds once: at most D roundings, so the
    relative error of the sum of |products| is gamma_D = D*u / (1 - D*u), and
    that sum is at most |row|*|query| (Cauchy-Schwarz). The norms come from
    computed sums of squares, where each square may underflow by less than the
    smallest normal float (so D of them are added back) and the rest round
    (so the norms are doubled). Each product may underflow by at most one
    subnormal spacing.
    """
    u = np.finfo(np.float64).eps / 2
    gamma = dimension * u / (1 - dimension * u)
    lost = dimension * float(np.finfo(np.float64).tiny)
    row_norm = np.sqrt(max_row_square + lost)
    query_norm = np.sqrt(query_square + lost)
    subnormal = float(np.finfo(np.float64).smallest_subnormal)
    return gamma * (2 * row_norm) * (2 * query_norm) + dimension * subnormal


def _approx_scores(vectors: np.ndarray, rows: np.ndarray | None, q: np.ndarray) -> np.ndarray:
    """einsum scores of the given rows (all rows if None), gathered _SCAN_CHUNK at a time."""
    if rows is None:
        return np.einsum("ij,j->i", vectors, q)
    out = np.empty(len(rows))
    for start in range(0, len(rows), _SCAN_CHUNK):
        chunk = rows[start : start + _SCAN_CHUNK]
        out[start : start + len(chunk)] = np.einsum("ij,j->i", vectors[chunk], q)
    return out


def search(
    index: SupportIndex,
    query_vector: np.ndarray,
    k: int,
    *,
    mask: np.ndarray | None = None,
) -> list[tuple[str, float]]:
    """Exact top-k cosine search: the k most similar items, best first.

    Returns min(k, candidates) (example_id, score) pairs sorted by descending
    score, ties broken by ascending example_id. The optional boolean row
    `mask` restricts candidates (used for the same-event-type retrieval
    filter; see SupportIndex.type_mask). With a mask, the einsum pass scores
    only the masked rows, copied out _SCAN_CHUNK rows at a time so that a
    dense mask never copies the whole matrix; the error bound, a maximum over
    all rows, holds for any subset of them.
    """
    if k < 1:
        raise EmbeddingError(f"k must be >= 1, got {k}")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dimension,):
        raise EmbeddingError(
            f"query dimension {q.shape} does not match index dimension {index.dimension}"
        )
    if mask is None:
        rows = np.arange(len(index))
    else:
        mask = np.asarray(mask)
        if mask.shape != (len(index),) or mask.dtype != np.bool_:
            raise EmbeddingError(f"mask must be a boolean array of shape ({len(index)},)")
        rows = np.flatnonzero(mask)
    if len(rows) > k:
        # Both primitives err from the true dot product by at most `error`, so
        # they differ by at most 2*error: a row whose approximate score is more
        # than 4*error below the k-th best is beaten by k rows under np.dot too.
        approx = _approx_scores(index.vectors, None if mask is None else rows, q)
        kth = np.partition(approx, len(rows) - k)[len(rows) - k]
        error = _dot_error_bound(index.dimension, index._max_row_square, float(np.dot(q, q)))
        cut = kth - 4 * error
        if np.isfinite(cut) and np.isfinite(approx).all():
            rows = rows[approx >= cut]
    scored = [(index.example_ids[i], float(np.dot(index.vectors[i], q))) for i in rows]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _support_digest(examples: Sequence[FewShotExample]) -> str:
    """sha256 over the example ids and texts, in order."""
    blob = json.dumps([[ex.example_id, ex.text] for ex in examples], ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def save_index(index: SupportIndex, path: str | Path, *, embedding: dict | None = None) -> None:
    """Persist (id, vector) pairs under a header; round-trips bit-exactly.

    Example texts and gold events are not stored; load_index re-attaches them
    from the support set by id. Besides dimension and count, the header
    records the embedding provider's config (`embedding`) and a digest of the
    indexed ids and texts (`support_digest`), so that a load can tell when
    the file was built from other inputs.
    """
    header = {
        "dimension": index.dimension,
        "count": len(index),
        "embedding": embedding,
        "support_digest": _support_digest(index.examples),
    }
    rows = (
        {"id": example_id, "vector": row.tolist()}
        for example_id, row in zip(index.example_ids, index.vectors)
    )
    write_rows(path, itertools.chain([header], rows))


def load_index(
    path: str | Path, examples: Sequence[FewShotExample], *, embedding: dict | None = None
) -> SupportIndex | None:
    """Load a persisted index, re-attaching examples by id.

    Every defect of the file (empty, bad header, a vector of the wrong
    dimension, an id with no support example, a row count that differs from
    the header) is a DatasetError naming it. Given the `embedding` config,
    returns None when the header's embedding config or support digest
    differs from `embedding` and `examples` or is missing: the file is stale
    and the caller rebuilds it. Only the header line is read to decide that.
    """
    path = Path(path)
    by_id = {ex.example_id: ex for ex in examples}
    records = iter_json_records(path)
    lineno, header = next(records, (0, None))
    if header is None:
        raise DatasetError(f"{path}: empty index file")
    try:
        dimension = int(header["dimension"])
        count = int(header["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"{path}: header at line {lineno} needs integer 'dimension' and 'count'"
        ) from exc
    if embedding is not None and (
        header.get("embedding") != embedding
        or header.get("support_digest") != _support_digest(examples)
    ):
        return None
    ids: list[str] = []
    rows: list[np.ndarray] = []
    attached: list[FewShotExample] = []
    for _, rec in check_rows(path, records, ("vector",)):
        vec = np.asarray(rec["vector"], dtype=np.float64)
        if vec.shape != (dimension,):
            raise DatasetError(f"{path}: vector for {rec['id']!r} has wrong dimension")
        example_id = str(rec["id"])
        if example_id not in by_id:
            raise DatasetError(f"{path}: no support example with id {example_id!r}")
        ids.append(example_id)
        rows.append(vec)
        attached.append(by_id[example_id])
    if len(ids) != count:
        raise DatasetError(f"{path}: header count {count} != {len(ids)} rows")
    matrix = np.vstack(rows)
    matrix.setflags(write=False)
    return SupportIndex(example_ids=tuple(ids), vectors=matrix, examples=tuple(attached))
