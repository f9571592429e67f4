"""Support-set embedding and exact top-k cosine retrieval of few-shot examples.

The index is a flat scan, and it is exact: a query's score for a row is
``float(np.dot(row, query))`` and ties break by ascending example id, so
retrieval is deterministic, which the golden-run tests rely on. A search takes
a matrix of queries and runs in two phases, in milliseconds over ~19k rows:

1. One chunked ``np.vecdot`` pass in float32 gives every row an approximate
   score for each query of a group of up to ``_QUERY_GROUP``. The scan is
   memory-bound, so the queries of a group share each read of a row, and each
   chunk of float64 rows is converted into one small float32 buffer that the
   pass reuses; no float32 copy of the matrix is kept. These scores differ
   from the per-row float64 ``np.dot`` by the float32 rounding of rows,
   queries, products and sums.
2. For each query, the two scores of a row differ by at most a proven
   forward-error bound (``_float32_error_bound`` plus ``_dot_error_bound``),
   which holds for any summation order. Every row whose approximate score is
   within twice that bound of the k-th best approximate score is rescored
   with ``np.dot``, and only those rows are sorted. A row left out is beaten
   by k rows under ``np.dot`` too, so it cannot be in the top k.

A search can also keep, per query and per event type, the same cut applied to
that type's rows alone: the type's shortlist. The top k among the examples of
any set of types lies in the union of their shortlists, so a same-type search
rescores that union and reads no other row (``same_type_rows``). A type's
shortlists for a whole group are one gather, one partition and one comparison
against a threshold per query (``_shortlists``); the cut over all rows is
taken per query, as one partition of all the group's scores copies them.

The pass also squares every float64 row from its chunk while it is in
cache: the error bounds of phase 2 need the largest row square.

The scan runs on the calling thread. Its vecdot takes one dot product per
(row, query) pair there; a BLAS product (``@``, ``np.dot`` or ``np.matmul``
on the matrix) would wake the BLAS library's threads, whose busy-waiting
costs more CPU than the scan saves.

The index holds the support set as the ``LabeledRows`` that ``load_gold``
returned: the per-type rows are read from its columns, and an example's event
dicts are built only when a search retrieves it.

Set-up works on whole batches of 256 texts. ``build_index`` turns each
batch's reply into one (n, D) float64 matrix (the hashed embedder's count
matrix as it is), takes every row's norm in one stacked product
(``_norms``) and divides the batch into the preallocated index matrix, so
no more than a batch or two is held beside it. Queries take the same path
(``embed_texts``), and both check a reply in one order: its dimensions,
then its norms. A reply whose vectors differ in length, or whose D is not
the first batch's, stops the build at that batch; ``build_index`` says
which batches may be sent before it stops.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from ._http import Endpoint
from .model import DatasetError, LabeledRows, _replace

__all__ = [
    "EmbeddingError",
    "EmbeddingProvider",
    "HashedBagEmbedder",
    "Hits",
    "HttpEmbeddingProvider",
    "SupportIndex",
    "build_index",
    "embed_texts",
    "load_index",
    "same_type_rows",
    "save_index",
    "search",
]

DEFAULT_DIMENSION = 384
_NORM_TOL = 1e-6
# Rows per vecdot call, converted into one reused float32 buffer: 192 KB at
# 384 dimensions. 128- and 256-row chunks scanned 19k rows for 22 queries in
# the same CPU time, 64-row chunks 4% slower and 512 to 1,024-row ones 13 to
# 19% slower; 1,024-row chunks raised peak RSS by 1.4 MB on 2k rows.
_SCAN_CHUNK = 128
# Queries scored per pass over the rows: the scan is memory-bound, so the
# queries of a group share each read of the matrix. The group's float32
# scores take N x 64 x 4 bytes at most, 4.9 MB at 19k rows (1.7 MB for 22
# queries). Each pass also squares every float64 row for the error bounds,
# from the chunk it has just converted: about 2 ms of CPU per pass at 19k
# rows (4% of a 64-query pass), against 2 to 5 ms for a separate read of the
# matrix.
_QUERY_GROUP = 64
_INDEX_FORMAT = "eventpipe-index/2"  # the header line, then np.save's matrix


class EmbeddingError(RuntimeError):
    """Embedding failed: provider error, zero vector, or dimension mismatch."""


class EmbeddingProvider(Protocol):
    """What embeds texts: one vector per text, in text order.

    A reply may be an (n, D) array or a sequence of n vectors (arrays or
    lists of numbers); it is read as one float64 matrix. Vectors of
    differing lengths are an EmbeddingError.

    A provider may also have ``embed_batches(batches)``, which yields one
    such reply per non-empty batch, in order, and may have the requests of
    later batches open before the caller has taken an earlier reply (see
    ``build_index``).
    """

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray | Sequence[np.ndarray]:
        ...


class HashedBagEmbedder:
    """Deterministic offline embedder: hashed bag-of-tokens projected to D dims.

    Each token of the normalized text lands in a bucket chosen by a stable
    digest, with a digest-chosen sign, and the count vector is L2-normalized.
    Similar token bags get similar vectors, which is all the retrieval tests
    need; no model weights are involved.

    Each instance memoizes the bucket and sign of every distinct token it has
    seen, so a support set hashes its vocabulary once rather than every token
    occurrence. A batch's tokens are looked up in the memo first, and only a
    batch with a token it lacks builds its set of new tokens to hash. A batch
    becomes one (n, D) count matrix built by ``np.bincount``: every entry is
    a sum of +1s and -1s, an exact integer in float64, so the vectors are
    bit-identical to adding the tokens one by one in any order.
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

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """The (len(texts), D) count matrix of texts, one row per text."""
        codes = self._codes
        # Equal to normalize(text).split(): lower() keeps whitespace as it is
        # and never makes any, and no whitespace is cased or case-ignorable, so
        # the final-sigma rule of lower() never looks across a whitespace run.
        tokens = [text.lower().split() for text in texts]
        flat = list(itertools.chain.from_iterable(tokens))
        try:  # a warm batch: every token memoized, no token set built
            code = np.fromiter(map(codes.__getitem__, flat), dtype=np.int64, count=len(flat))
        except KeyError:
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
        return counts.astype(np.float64, copy=False).reshape(len(texts), self.dimension)


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
        return [vec for vectors in self.embed_batches([texts]) for vec in vectors]

    def embed_batches(self, batches: Iterable[Sequence[str]]) -> Iterator[list[np.ndarray]]:
        """Each non-empty batch's vectors, in batch order, through one Endpoint.stream.

        A batch is posted batch_size texts per request, and no request spans
        two batches, so the requests are those of one embed_batch call per
        batch. The stream's window stays full across batches: the requests
        of later batches are open while the caller works on an earlier one.
        An empty batch makes no request and yields nothing.
        """
        size = self.batch_size
        # request -> (texts, position of the first in its batch, ends its batch).
        # An entry is added before its request is submitted and popped by the
        # worker that parses its reply, one key per request, so no lock is needed.
        layout: dict[int, tuple[int, int, bool]] = {}

        def payloads() -> Iterator[dict]:
            requests = itertools.count()
            for batch in batches:
                for first in range(0, len(batch), size):
                    chunk = list(batch[first : first + size])
                    layout[next(requests)] = (len(chunk), first, first + size >= len(batch))
                    yield {"texts": chunk}

        def parse(i: int, payload) -> tuple[list[np.ndarray], bool]:
            count, first, last = layout.pop(i)
            vectors = payload.get("vectors") if isinstance(payload, dict) else None
            if not isinstance(vectors, list) or len(vectors) != count:
                raise EmbeddingError(
                    f"embedding endpoint returned {0 if not isinstance(vectors, list) else len(vectors)} "
                    f"vectors for {count} texts"
                )
            return [_reply_vector(v, first + j) for j, v in enumerate(vectors)], last

        vectors: list[np.ndarray] = []
        with closing(self.endpoint.stream(payloads(), parse)) as parts:
            for part, last in parts:
                vectors += part
                if last:
                    yield vectors
                    vectors = []


class _BadVector(EmbeddingError):
    """A reply vector that is not a non-empty list of finite numbers; position is in its batch."""

    problem = "embedding endpoint returned no vector of finite numbers"

    def __init__(self, position: int):
        super().__init__(f"{self.problem} for text {position}")
        self.position = position


def _reply_vector(value, position: int) -> np.ndarray:
    """A reply's vector as float64: a non-empty list of finite JSON numbers, or _BadVector."""
    # type() rather than isinstance: a JSON boolean is a bool, which isinstance takes for an int.
    if isinstance(value, list) and value and set(map(type, value)) <= {int, float}:
        try:
            vec = np.fromiter(value, np.float64, len(value))
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(vec).all():
                return vec
    raise _BadVector(position)


def _matrix(vecs, n: int, items: str) -> np.ndarray:
    """One embedding reply for n texts as one C-contiguous float64 (n, D) matrix.

    The matrix is the reply itself when it is one already (the hashed
    embedder's), else one np.asarray copy of its vectors. Vectors of
    differing lengths are a dimension mismatch across `items`.
    """
    if len(vecs) != n:
        raise EmbeddingError(f"embedding provider returned {len(vecs)} vectors for {n} texts")
    if not len(vecs):
        return np.empty((0, 0))
    try:
        matrix = np.asarray(vecs, dtype=np.float64)
    except ValueError:  # vectors of differing lengths, or not numbers
        dims = {len(vec) for vec in vecs}
        if len(dims) == 1:
            raise
        raise _mismatch(items, dims) from None
    if matrix.ndim != 2:
        raise EmbeddingError(f"embedding provider returned an array of shape {matrix.shape}")
    return np.ascontiguousarray(matrix)


def _mismatch(items: str, dims: set[int]) -> EmbeddingError:
    return EmbeddingError(f"embedding dimension mismatch across {items}: {sorted(dims)}")


def _norms(rows: np.ndarray, what: Callable[[int], str]) -> np.ndarray:
    """Each row's L2 norm as ``np.linalg.norm`` computes it: ``sqrt(row.dot(row))``.

    Every ``row.dot(row)`` of the matrix is one stacked ``np.matmul`` of
    (1, D) by (D, 1) products, which runs the same vector-dot kernel as
    ``row.dot(row)`` and so rounds the same; a vectorized sum of squares
    (``einsum("ij,ij->i")``, say) could round differently. The first zero or
    non-finite norm is an EmbeddingError naming what(row).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is reported below
        norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).reshape(len(rows)))
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > _NORM_TOL)))
    if bad.size:
        zero = norms[bad[0]] <= _NORM_TOL
        problem = "zero embedding vector" if zero else "embedding vector norm is not finite"
        raise EmbeddingError(f"{what(bad[0])}: {problem}")
    return norms


def embed_texts(texts: Sequence[str], embedding_provider: EmbeddingProvider) -> np.ndarray:
    """Embed texts with one embed_batch call: an (n, D) matrix of unit-norm rows."""
    rows = _matrix(embedding_provider.embed_batch(list(texts)), len(texts), "texts")
    norms = _norms(rows, lambda row: f"text {texts[row][:40]!r}")
    return np.divide(rows, norms[:, None])


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
    def type_rows(self) -> dict[str, np.ndarray]:
        """Each event type's rows, ascending: examples with a gold event of that type."""
        rows: dict[str, list[int]] = {}
        for row, events in enumerate(self.examples.events):
            for event in events:
                rows.setdefault(event[1], []).append(row)
        out = {}
        for event_type, listed in rows.items():
            listed = np.array(listed, dtype=np.int32)
            # Rows ascend, so a row listed twice (two events of one type) is adjacent.
            out[event_type] = listed[np.diff(listed, prepend=-1) > 0]
        return out


def build_index(
    examples: LabeledRows,
    embedding_provider: EmbeddingProvider,
    *,
    batch_size: int = 256,
) -> SupportIndex:
    """Embed every support example and assemble the flat index.

    Repeatable: the same examples and provider produce identical contents.
    Each embedding batch is one matrix, normalized at once (see ``_norms``)
    and divided straight into one preallocated (N, D) matrix, so the support
    set is held once and never stacked. The first batch that shows an error
    raises it: within a batch, a dimension mismatch (a ragged reply, or a D
    other than the first batch's) comes before the first row whose norm is
    zero or not finite, and a reply vector that is not a list of finite
    numbers names its example.

    The first batch is embedded and checked alone, so a bad first reply
    never sends a later batch. The later batches come from the provider's
    ``embed_batches`` when it has one (the remote provider's): its requests
    go through ``Endpoint.stream`` while earlier batches are normalized, so
    a bad later batch may be found with requests for the next ones already
    sent, within that stream's bound. Any error closes that stream, and its
    threads are shut down before this returns or raises. Any other provider
    embeds each later batch with one embed_batch call, and no batch after
    the bad one is embedded.
    """
    if not examples:
        raise EmbeddingError("cannot build an index over an empty support set")
    seen: set[str] = set()
    for example_id in examples.ids:
        if example_id in seen:
            raise EmbeddingError(f"duplicate example id {example_id!r}")
        seen.add(example_id)
    matrix: np.ndarray | None = None
    with closing(_batch_replies(examples.texts, embedding_provider, batch_size)) as replies:
        for start in range(0, len(examples), batch_size):
            try:
                vecs = next(replies)
            except _BadVector as exc:
                example = examples.ids[start + exc.position]
                raise EmbeddingError(f"example {example!r}: {exc.problem}") from None
            rows = _matrix(vecs, min(batch_size, len(examples) - start), "examples")
            if matrix is None:
                matrix = np.empty((len(examples), rows.shape[1]))
            elif rows.shape[1] != matrix.shape[1]:
                raise _mismatch("examples", {matrix.shape[1], rows.shape[1]})
            norms = _norms(rows, lambda row: f"example {examples.ids[start + row]!r}")
            np.divide(rows, norms[:, None], out=matrix[start : start + len(rows)])
    return SupportIndex(examples, matrix)


def _batch_replies(
    texts: Sequence[str], embedding_provider: EmbeddingProvider, batch_size: int
) -> Iterator:
    """The embedding reply of each batch_size texts, in order; the first batch is embedded alone."""
    starts = range(0, len(texts), batch_size)
    batches = (list(texts[start : start + batch_size]) for start in starts)
    yield embedding_provider.embed_batch(next(batches))
    streamed = getattr(embedding_provider, "embed_batches", None)
    yield from streamed(batches) if streamed else map(embedding_provider.embed_batch, batches)


def _norm_bound(dimension: int, square: float) -> float:
    """Bound on the exact L2 norm of a D-vector whose float64 sum of squares computed to `square`.

    Each square may underflow by less than the smallest normal float (so D of
    them are added back) and the rest round (so the root is doubled).
    """
    return 2 * np.sqrt(square + dimension * float(np.finfo(np.float64).tiny))


def _gamma(dimension: int, u: float) -> float:
    """gamma_D = D*u / (1 - D*u): the relative error of D roundings to unit roundoff u."""
    return dimension * u / (1 - dimension * u) if dimension * u < 1 else np.inf


def _dot_error_bound(dimension: int, max_row_square: float, query_square: float) -> float:
    """Bound on |computed - exact| for a D-term float64 dot product, any summation order.

    Each product and partial sum rounds once: at most D roundings, so the
    relative error of the sum of |products| is gamma_D with float64's unit
    roundoff, and that sum is at most |row|*|query| (Cauchy-Schwarz), which
    the norm bounds bound. Each product may underflow by at most one subnormal
    spacing.
    """
    u = np.finfo(np.float64).eps / 2
    row_norm = _norm_bound(dimension, max_row_square)
    query_norm = _norm_bound(dimension, query_square)
    subnormal = float(np.finfo(np.float64).smallest_subnormal)
    return _gamma(dimension, u) * row_norm * query_norm + dimension * subnormal


def _float32_error_bound(dimension: int, max_row_square: float, query_square: float) -> float:
    """Bound on |float32 scan score - exact dot product| of a float64 row and query.

    With u = 2**-24 and s = 2**-149 (float32's smallest subnormal), the scan
    rounds each component x of the row and y of the query to float32 as
    x' = x + e with |e| <= u|x| + s/2: the s/2 covers a component below
    float32's smallest normal (1.2e-38), which becomes a multiple of s or
    zero. A component beyond float32's range becomes inf, whose non-finite
    score prunes nothing. Per component,

        |x'y' - xy| = |ey + xf + ef| <= (2u + u^2)|x||y| + (1 + u)(s/2)(|x| + |y|) + s^2/4,

    and summed over D components, with sum |x_i y_i| <= X*Y and
    sum |x_i| <= sqrt(D)*X for X, Y the norm bounds of row and query, the
    conversion moves the dot product by at most

        (2u + u^2) X Y + (1 + u)(s/2) sqrt(D) (X + Y) + D s^2/4.

    The float32 products and sums of the converted vectors then round at most
    D times in any order: gamma_D (with u) times sum |x'_i y'_i| <= X'Y', where
    X' = (1 + u) X + (s/2) sqrt(D) bounds |x'|, plus at most s/2 for each
    product that underflows (a sum of subnormals is exact). Each s/2 is taken
    as s, which leaves room for the float64 rounding of the bound itself.
    """
    u = np.finfo(np.float32).eps / 2
    s = float(np.finfo(np.float32).smallest_subnormal)
    row_norm = _norm_bound(dimension, max_row_square)
    query_norm = _norm_bound(dimension, query_square)
    root = np.sqrt(dimension)
    conversion = (
        (2 * u + u * u) * row_norm * query_norm
        + (1 + u) * s * root * (row_norm + query_norm)
        + dimension * s * s
    )
    row32 = (1 + u) * row_norm + s * root
    query32 = (1 + u) * query_norm + s * root
    return conversion + _gamma(dimension, u) * row32 * query32 + dimension * s


@dataclass(frozen=True, eq=False)  # no element-wise == on the query
class Hits:
    """One query's search: the query, k, its top-k rows and its per-type shortlists.

    `rows` holds the k best rows, best first. `shortlists` (None from a
    search without `by_type`) maps each event type to the rows of that type
    that the float32 scores cannot rule out of the type's top k: row ids
    only, no per-row score is kept.
    """

    query: np.ndarray
    k: int
    rows: list[int]
    shortlists: dict[str, np.ndarray] | None


# The scan stays on the calling thread, also in a threaded run. A by-type
# search of 22 queries over 19,000 x 384 rows (median of 30 passes, 2-vCPU
# machine) took 31 ms of wall time and of CPU there, and 23-25 ms of wall time
# but 36-38 ms of CPU split into row blocks on two worker threads: about 7 ms
# saved per query group, in a run that waits seconds on its chat provider, for
# about 6 ms more CPU.
def _approx_scores(vectors: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, float]:
    """float32 vecdot scores (row by query) of every row, and the largest float64 row square.

    The rows are scanned _SCAN_CHUNK at a time, each chunk converted into one
    reused float32 buffer. A component beyond float32's range converts to
    inf, and inf times zero is NaN: a non-finite score, which prunes nothing.
    The largest square is NaN when any row's is, and then no cut is finite.
    """
    out = np.empty((len(vectors), len(queries)), dtype=np.float32)
    buffer = np.empty((min(_SCAN_CHUNK, len(vectors)), vectors.shape[1]), dtype=np.float32)
    squares = np.empty(len(vectors))
    with np.errstate(over="ignore", invalid="ignore"):
        group = queries.astype(np.float32)
        for start in range(0, len(vectors), _SCAN_CHUNK):
            rows = slice(start, start + _SCAN_CHUNK)
            chunk = vectors[rows]
            converted = buffer[: len(chunk)]
            np.copyto(converted, chunk, casting="same_kind")
            np.vecdot(converted[:, None, :], group[None, :, :], out=out[rows])
            np.einsum("ij,ij->i", chunk, chunk, out=squares[rows])
    return out, float(squares.max())


def search(
    index: SupportIndex,
    queries: np.ndarray,
    k: int,
    *,
    by_type: bool = False,
) -> list[Hits]:
    """Exact top-k cosine search for each row of `queries`: one Hits per query.

    A query's Hits.rows are its min(k, N) most similar rows, by descending
    score, ties broken by ascending example id. With `by_type`, its
    Hits.shortlists answer same_type_rows for any set of event types. The
    float32 vecdot pass reads the matrix once per _QUERY_GROUP queries,
    _SCAN_CHUNK rows at a time, and both uses share it.
    """
    if k < 1:
        raise EmbeddingError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dimension:
        raise EmbeddingError(
            f"query matrix of shape {queries.shape} does not match index dimension "
            f"{index.dimension}"
        )
    hits = []
    every_row = np.arange(len(index))
    for start in range(0, len(queries), _QUERY_GROUP):
        group = queries[start : start + _QUERY_GROUP]
        # Frees the previous group's scores before the next are made.
        approx, cuts = None, np.full(len(group), np.inf)
        if len(index) > k:  # else every row is in every top k
            approx, max_square = _approx_scores(index.vectors, group)
            # A row more than twice its two error bounds below the k-th best
            # approximate score of some rows is beaten by k of them under
            # np.dot too. An overflowing bound, and a query with a non-finite
            # score (a float64 sum of float32 scores is finite exactly when
            # they all are), get an inf cut, which prunes nothing.
            with np.errstate(over="ignore", invalid="ignore"):
                args = (index.dimension, max_square, np.vecdot(group, group))
                cuts = 2 * (_float32_error_bound(*args) + _dot_error_bound(*args))
                cuts[~np.isfinite(approx.sum(axis=0, dtype=np.float64))] = np.inf
        types = index.type_rows.items() if by_type else ()
        typed = {t: _shortlists(rows, approx, k, cuts) for t, rows in types}
        for j, q in enumerate(group):
            column = None if approx is None else approx[:, j : j + 1]
            (top,) = _shortlists(every_row, column, k, cuts[j : j + 1])
            shortlists = {t: lists[j] for t, lists in typed.items()} if by_type else None
            hits.append(Hits(q, k, _ranked(index, top.tolist(), q, k), shortlists))
    return hits


def _shortlists(
    rows: np.ndarray, approx: np.ndarray | None, k: int, cuts: np.ndarray
) -> list[np.ndarray]:
    """Per query, the `rows` within its cut of the k-th best approximate score among them.

    `approx` holds the group's scores, row by query, and `cuts` one cut per
    query. `rows` ascend without repeats, so N of them are every row in
    order, which is read without a gather.
    """
    if len(rows) <= k:
        return [rows] * len(cuts)
    scores = approx if len(rows) == len(approx) else approx[rows]
    kth = np.partition(scores, len(rows) - k, axis=0)[len(rows) - k]
    # A float64 threshold, so that the float32 scores are compared unrounded.
    # Under an inf cut it is -inf or NaN (inf - inf), and no score, NaN
    # included, is below it: that query keeps every row.
    with np.errstate(invalid="ignore"):
        threshold = kth.astype(np.float64) - cuts
    keep = ~(scores < threshold)
    return [rows[keep[:, j]] for j in range(len(cuts))]


def _ranked(index: SupportIndex, rows: list[int], q: np.ndarray, k: int) -> list[int]:
    """The k best of `rows` by float(np.dot(row, q)), ties broken by ascending example id."""
    vectors, ids = index.vectors, index.example_ids
    return sorted(rows, key=lambda row: (-float(np.dot(vectors[row], q)), ids[row]))[:k]


def same_type_rows(index: SupportIndex, hits: Hits, types: Iterable[str]) -> list[int]:
    """The top hits.k rows among examples with a gold event of any of `types`.

    Only the union of the types' shortlists is rescored. This is exact: the
    union's top k lies in the union of each type's top k, and a row left off
    type t's shortlist is beaten under np.dot by k rows of t, all on it.
    """
    if hits.shortlists is None:
        raise EmbeddingError("a same-type search needs the hits of search(..., by_type=True)")
    # A set, not np.unique, which imports numpy.ma (about 1 MB resident).
    rows = set().union(*(hits.shortlists[t].tolist() for t in set(types) if t in hits.shortlists))
    return _ranked(index, sorted(rows), hits.query, hits.k)


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
        except (ValueError, RecursionError):  # invalid JSON or UTF-8, or nested too deep
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
