"""Support-set embedding and exact top-k cosine retrieval of few-shot examples.

The index is a flat scan, and it is exact: a query's score for a row is
``float(np.dot(row, query))`` and ties break by ascending example id, so
retrieval is deterministic, which the golden-run tests rely on. A search takes
a matrix of queries and runs in two phases, in milliseconds over ~19k rows:

1. One blocked ``np.einsum`` pass gives every candidate row (every row, or
   the rows of a mask) an approximate score for each query of a group of up
   to ``_QUERY_GROUP``. The scan is memory-bound, so the queries of a group
   share each read of a row. The summation order differs from the per-row
   ``np.dot``, so these scores may differ in the last bits.
2. For each query, the two scores of a row differ by at most a proven
   forward-error bound (about ``2 * gamma_D * max|row| * |query|``), which
   holds for any summation order. Every row whose approximate score is within
   twice that bound of the k-th best approximate score is rescored with
   ``np.dot``, and only those rows are sorted. A row left out is beaten by k
   rows under ``np.dot`` too, so it cannot be in the top k.

The scan goes through einsum, numpy's own single-threaded loop, not through
BLAS: a BLAS product (``@``, ``np.dot`` or ``np.matmul`` on the matrix) wakes
the BLAS thread pool, whose threads busy-wait between calls and cost more
CPU than the scan saves.

The index holds the support set as the ``LabeledRows`` that ``load_gold``
returned: the type masks read each row's event types from its columns, and
an example's event dicts are built only when a search retrieves it.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Protocol, Sequence

import numpy as np

from .model import DatasetError, LabeledRows, _replace

if TYPE_CHECKING:  # pragma: no cover
    from ._http import Endpoint

__all__ = [
    "EmbeddingError",
    "EmbeddingProvider",
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
_SCAN_CHUNK = 4096  # rows per einsum call; a masked chunk is a 12 MB copy at 384 dimensions
# Queries scored per pass over the rows. The group's N x 8 approximate scores
# take 1.2 MB at 19k rows. Groups of 16 and 32 saved little more CPU at 19k
# rows and raised peak RSS by about 0.5 MB at 2k rows.
_QUERY_GROUP = 8
_INDEX_FORMAT = "eventpipe-index/2"  # the header line, then np.save's matrix


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


def _embed(texts: Sequence[str], embedding_provider: EmbeddingProvider) -> list[np.ndarray]:
    """One embed_batch call's vectors for texts, as contiguous float64 arrays."""
    vecs = embedding_provider.embed_batch(list(texts))
    if len(vecs) != len(texts):
        raise EmbeddingError(
            f"embedding provider returned {len(vecs)} vectors for {len(texts)} texts"
        )
    return [np.ascontiguousarray(vec, dtype=np.float64) for vec in vecs]


def _norms(rows: Sequence[np.ndarray], what: Callable[[int], str]) -> np.ndarray:
    """Each row's L2 norm as ``np.linalg.norm`` computes it: ``sqrt(row.dot(row))``.

    A vectorized sum of squares could round differently for arbitrary float
    embeddings. The first zero or non-finite norm is an EmbeddingError naming
    what(row).
    """
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.sqrt([row.dot(row) for row in rows])
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > _NORM_TOL)))
    if bad.size:
        zero = norms[bad[0]] <= _NORM_TOL
        problem = "zero embedding vector" if zero else "embedding vector norm is not finite"
        raise EmbeddingError(f"{what(bad[0])}: {problem}")
    return norms


def embed_texts(texts: Sequence[str], embedding_provider: EmbeddingProvider) -> list[np.ndarray]:
    """Embed texts with one embed_batch call, each to a unit-norm vector of one dimension."""
    rows = _embed(texts, embedding_provider)
    dims = sorted({len(row) for row in rows})
    if len(dims) > 1:
        raise EmbeddingError(f"embedding dimension mismatch across texts: {dims}")
    norms = _norms(rows, lambda row: f"text {texts[row][:40]!r}")
    return list(np.divide(rows, norms[:, None]))


@dataclass(frozen=True)
class SupportIndex:
    """Immutable flat index over the support set: read-only row i embeds examples[i]."""

    examples: LabeledRows
    vectors: np.ndarray  # (N, D) float64, unit rows

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)

    @property
    def example_ids(self) -> tuple[str, ...]:
        return self.examples.ids

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.examples)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Row position of each example id."""
        return {example_id: row for row, example_id in enumerate(self.example_ids)}

    @cached_property
    def type_masks(self) -> dict[str, np.ndarray]:
        """Boolean row mask of each event type: examples with a gold event of that type."""
        rows: dict[str, list[int]] = {}
        for row, events in enumerate(self.examples.events):
            for event_type in {event[1] for event in events}:
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
            if event_type in self.type_masks:
                mask |= self.type_masks[event_type]
        return mask

    @cached_property
    def _max_row_square(self) -> float:
        return float(np.einsum("ij,ij->i", self.vectors, self.vectors).max())


def build_index(
    examples: LabeledRows,
    embedding_provider: EmbeddingProvider,
    *,
    batch_size: int = 256,
) -> SupportIndex:
    """Embed every support example and assemble the flat index.

    Repeatable: the same examples and provider produce identical contents.
    Each embedding batch is normalized at once (see ``_norms``) and divided
    straight into one preallocated (N, D) matrix, so the support set is held
    once and never stacked. The first row whose norm is zero or not finite is
    the error, before any later batch is embedded; a dimension mismatch is
    reported after the last batch.
    """
    if not examples:
        raise EmbeddingError("cannot build an index over an empty support set")
    seen: set[str] = set()
    for example_id in examples.ids:
        if example_id in seen:
            raise EmbeddingError(f"duplicate example id {example_id!r}")
        seen.add(example_id)
    matrix: np.ndarray | None = None
    dims: set[int] = set()
    for start in range(0, len(examples), batch_size):
        rows = _embed(examples.texts[start : start + batch_size], embedding_provider)
        norms = _norms(rows, lambda row: f"example {examples.ids[start + row]!r}")
        dims.update(row.shape[0] for row in rows)
        if matrix is None:
            matrix = np.empty((len(examples), rows[0].shape[0]))
        if dims == {matrix.shape[1]}:
            np.divide(rows, norms[:, None], out=matrix[start : start + len(rows)])
    if len(dims) != 1:
        raise EmbeddingError(f"embedding dimension mismatch across examples: {sorted(dims)}")
    return SupportIndex(examples, matrix)


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


def _approx_scores(
    vectors: np.ndarray, rows: np.ndarray | None, queries: np.ndarray
) -> np.ndarray:
    """einsum scores (row by query) of the given rows (all rows if None), _SCAN_CHUNK at a time."""
    count = len(vectors) if rows is None else len(rows)
    out = np.empty((count, len(queries)))
    for start in range(0, count, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, count)
        block = vectors[start:stop] if rows is None else vectors[rows[start:stop]]
        np.einsum("ij,kj->ik", block, queries, out=out[start:stop])
    return out


def search(
    index: SupportIndex,
    queries: np.ndarray,
    k: int,
    *,
    mask: np.ndarray | None = None,
) -> list[list[tuple[str, float]]]:
    """Exact top-k cosine search for each row of `queries`: the k most similar items, best first.

    Returns, per query, min(k, candidates) (example_id, score) pairs sorted
    by descending score, ties broken by ascending example_id. The optional
    boolean row `mask` restricts the candidates of every query (used for the
    same-event-type retrieval filter; see SupportIndex.type_mask); a masked
    single-query search passes a one-row matrix. The einsum pass reads the
    candidate rows once per _QUERY_GROUP queries, _SCAN_CHUNK rows at a time;
    masked rows are copied out chunk by chunk, so a dense mask never copies
    the whole matrix. The error bound, a maximum over all rows, holds for
    any subset of them.
    """
    if k < 1:
        raise EmbeddingError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dimension:
        raise EmbeddingError(
            f"query matrix of shape {queries.shape} does not match index dimension "
            f"{index.dimension}"
        )
    if mask is None:
        rows = np.arange(len(index))
    else:
        mask = np.asarray(mask)
        if mask.shape != (len(index),) or mask.dtype != np.bool_:
            raise EmbeddingError(f"mask must be a boolean array of shape ({len(index)},)")
        rows = np.flatnonzero(mask)
    hits = []
    for start in range(0, len(queries), _QUERY_GROUP):
        group = queries[start : start + _QUERY_GROUP]
        approx = None  # frees the previous group's scores before the next are made
        if len(rows) > k:  # else every row is in the top k
            approx = _approx_scores(index.vectors, None if mask is None else rows, group)
        for j, q in enumerate(group):
            hits.append(_top_k(index, rows, q, k, None if approx is None else approx[:, j]))
    return hits


def _top_k(
    index: SupportIndex, rows: np.ndarray, q: np.ndarray, k: int, approx: np.ndarray | None
) -> list[tuple[str, float]]:
    """The top k of `rows` for query q: np.dot rescores only the rows approx cannot rule out."""
    # A non-finite approximate score prunes nothing (and would make the cut
    # inf - inf when k rows score +inf).
    if approx is not None and np.isfinite(approx).all():
        # Both primitives err from the true dot product by at most `error`, so
        # they differ by at most 2*error: a row whose approximate score is more
        # than 4*error below the k-th best is beaten by k rows under np.dot too.
        kth = np.partition(approx, len(rows) - k)[len(rows) - k]
        error = _dot_error_bound(index.dimension, index._max_row_square, float(np.dot(q, q)))
        cut = kth - 4 * error
        if np.isfinite(cut):
            rows = rows[approx >= cut]
    scored = [(index.example_ids[i], float(np.dot(index.vectors[i], q))) for i in rows]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _support_digest(examples: LabeledRows) -> str:
    """sha256 over the example ids and texts, in order."""
    blob = json.dumps(list(map(list, zip(examples.ids, examples.texts))), ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def save_index(index: SupportIndex, path: str | Path, *, embedding: dict) -> None:
    """Persist the index's matrix under a header line; round-trips bit-exactly.

    The file is one JSON header line, then the matrix as ``np.save`` writes
    it, whose own header holds the dtype and shape. The JSON header records
    the format, the embedding provider's config (`embedding`) and a digest
    of the indexed ids and texts (`support_digest`), so that a load can tell
    when the file was built from other inputs. Neither ids nor texts are
    stored: under a matching digest, row i belongs to the i-th example.
    """
    header = {
        "embedding": embedding,
        "format": _INDEX_FORMAT,
        "support_digest": _support_digest(index.examples),
    }

    def write(fh: BinaryIO) -> None:
        fh.write(json.dumps(header, sort_keys=True, ensure_ascii=True).encode() + b"\n")
        np.save(fh, index.vectors, allow_pickle=False)

    _replace(path, write)


def load_index(path: str | Path, examples: LabeledRows, *, embedding: dict) -> SupportIndex | None:
    """Load a persisted index over `examples`, or None when it is stale.

    The file is stale when its header's embedding config or support digest
    differs from `embedding` and `examples`; the caller rebuilds it. Only the
    header line is read to decide that. Every defect of the file is a
    DatasetError naming it: an empty file, a header line that is not one of
    this format (an index of an older format, or another file), and a matrix
    that is truncated, corrupt, not float64 or not one row per example.
    """
    path = Path(path)
    with path.open("rb") as fh:
        line = fh.readline()
        if not line:
            raise DatasetError(f"{path}: empty index file")
        try:
            header = json.loads(line)
        except ValueError:  # invalid JSON or UTF-8
            header = None
        if not isinstance(header, dict) or header.get("format") != _INDEX_FORMAT:
            raise DatasetError(
                f"{path}: not an index in the current format; rebuild it with "
                "`eventpipe build-index`"
            )
        built_from = (header.get("embedding"), header.get("support_digest"))
        if built_from != (embedding, _support_digest(examples)):
            return None
        try:
            matrix = np.load(fh, allow_pickle=False)
            if fh.read(1):
                raise ValueError("bytes after the matrix")
        except (ValueError, EOFError) as exc:
            raise DatasetError(f"{path}: index matrix is truncated or corrupt") from exc
    rows, dimension = matrix.shape if matrix.ndim == 2 else (-1, 0)
    if matrix.dtype != np.float64 or rows != len(examples) or dimension < 1:
        raise DatasetError(
            f"{path}: index matrix has dtype {matrix.dtype} and shape {matrix.shape}, "
            f"not float64 and ({len(examples)}, D)"
        )
    return SupportIndex(examples, matrix)
