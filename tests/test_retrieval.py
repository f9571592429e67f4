"""Embedding providers, the flat support index, and exact top-k search."""
from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_rows
from eventpipe import retrieval
from eventpipe.config import ProviderConfig, build_embedding_provider
from eventpipe.model import DatasetError, LabeledRows, LabeledSegment, normalize
from eventpipe.retrieval import (
    DEFAULT_DIMENSION,
    EmbeddingError,
    HashedBagEmbedder,
    SupportIndex,
    build_index,
    embed_texts,
    load_index,
    same_type_rows,
    save_index,
    search,
)


def _scored(index, rows, query):
    """(example id, np.dot score) of each row: the pairs brute_force_top_k returns."""
    return [(index.example_ids[row], float(np.dot(index.vectors[row], query))) for row in rows]


def _search_one(index, query, k, types=None):
    """One query's scored hits: its top k, or the top k among examples of `types`."""
    query = np.asarray(query, dtype=np.float64)
    (hits,) = search(index, query[None], k, by_type=types is not None)
    rows = hits.rows if types is None else same_type_rows(index, hits, types)
    return _scored(index, rows, query)


def _examples(n, prefix="ex"):
    return labeled_rows(
        LabeledSegment(id=f"{prefix}-{i:03d}", text=f"text number {i}") for i in range(n)
    )


def _typed(ids, types=None):
    """Support rows of the given ids; row i has a gold event of each type in types[i]."""
    types = types or [()] * len(ids)
    return labeled_rows(
        LabeledSegment(
            id=i,
            text=i,
            gold_events=tuple({"trigger": "t", "type": t, "arguments": []} for t in sorted(row)),
        )
        for i, row in zip(ids, types)
    )


def _index_from_vectors(vectors, ids=None, types=None):
    """Assemble an index directly from unit row vectors, bypassing embedding."""
    matrix = np.asarray(vectors, dtype=np.float64)
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    matrix.setflags(write=False)
    n = matrix.shape[0]
    ids = ids or [f"v-{i:04d}" for i in range(n)]
    return SupportIndex(examples=_typed(ids, types), vectors=matrix)


def brute_force_top_k(index, query, k, where=None):
    """Reference scan: same scoring primitive, independent selection logic."""
    rows = []
    for i, example_id in enumerate(index.example_ids):
        if where is not None and not where(index.examples[i]):
            continue
        rows.append((example_id, float(np.dot(index.vectors[i], query))))
    # Stable selection: repeatedly take the best remaining (max score, then
    # lexicographically smallest id), without relying on sort().
    out = []
    remaining = list(rows)
    while remaining and len(out) < k:
        best = remaining[0]
        for cand in remaining[1:]:
            if cand[1] > best[1] or (cand[1] == best[1] and cand[0] < best[0]):
                best = cand
        out.append(best)
        remaining.remove(best)
    return out


_TYPES = ("A", "B", "C", "D")


@st.composite
def _search_cases(draw):
    """(index, queries, k, wanted types or None) with rows that stress the candidate cut.

    Rows may repeat exactly, sit one ulp apart, be non-unit (zero, tiny enough
    for subnormal products, or large enough to overflow the norm bound and
    float32) or hold an infinite entry, and ids are shuffled against row
    order so ties must break by id. A query may copy a row or hold an
    infinite entry.
    """
    dimension = draw(st.integers(1, 512))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(n, dimension))
    if draw(st.booleans()):
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    queries = rng.normal(size=(draw(st.integers(1, 9)), dimension))
    for q in queries:
        if draw(st.booleans()):
            q[:] = vectors[draw(st.integers(0, n - 1))]
    scales = st.sampled_from([0.0, 1e-300, 1e-3, 7.5, 1e200])
    for row, scale in draw(st.dictionaries(st.integers(0, n - 1), scales, max_size=3)).items():
        vectors[row] *= scale
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        vectors[dst] = vectors[src]
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        vectors[dst] = np.nextafter(vectors[src], draw(st.sampled_from([np.inf, -np.inf])))
    infinite = st.tuples(st.integers(0, dimension - 1), st.sampled_from([np.inf, -np.inf]))
    for matrix in (vectors, queries):
        at = st.dictionaries(st.integers(0, len(matrix) - 1), infinite, max_size=1)
        for row, (col, value) in draw(at).items():
            matrix[row, col] = value
    vectors.setflags(write=False)
    ids = [f"v-{i:04d}" for i in rng.permutation(n)]
    types = [draw(st.sets(st.sampled_from(_TYPES))) for _ in ids]
    index = SupportIndex(examples=_typed(ids, types), vectors=vectors)
    wanted = draw(st.none() | st.sets(st.sampled_from(_TYPES + ("E",))))
    return index, queries, draw(st.integers(1, n + 3)), wanted


@st.composite
def _float32_cases(draw, chunk: int | None = None):
    """(index, queries, k, wanted types) whose scores float32 cannot tell apart.

    Rows are one direction plus noise from none to 1e-5, so true scores tie
    or differ below float32's resolution; rows repeat exactly; and entries,
    or whole rows, sit below float32's smallest normal (1.2e-38), where the
    conversion keeps a few bits or none. A query may copy a row or be tiny.
    Given a scan chunk, N falls one below, on or one above a chunk edge.
    """
    dimension = draw(st.integers(1, 64))
    if chunk is None:
        n = draw(st.integers(2, 40))
    else:
        n = max(2, chunk * draw(st.integers(1, 5)) + draw(st.sampled_from([-1, 0, 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=dimension)
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5]))
    vectors = base + noise * rng.normal(size=(n, dimension))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        vectors[dst] = vectors[src]
    tiny = st.sampled_from([1e-38, -3e-39, 1e-41, -1e-44, 2e-45, 1e-46, 1e-300])
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, dimension - 1))
    for (row, col), value in draw(st.dictionaries(cells, tiny, max_size=8)).items():
        vectors[row, col] = value
    for row in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        vectors[row] *= draw(st.sampled_from([1e-38, 1e-42, 1e-45]))
    queries = rng.normal(size=(draw(st.integers(1, 5)), dimension))
    for q in queries:
        source = draw(st.sampled_from(["random", "row", "base", "tiny"]))
        if source == "row":
            q[:] = vectors[draw(st.integers(0, n - 1))]
        elif source == "base":
            q[:] = base
        elif source == "tiny":
            q *= 1e-40
    vectors.setflags(write=False)
    ids = [f"v-{i:04d}" for i in rng.permutation(n)]
    types = [draw(st.sets(st.sampled_from(_TYPES))) for _ in ids]
    index = SupportIndex(examples=_typed(ids, types), vectors=vectors)
    wanted = draw(st.sets(st.sampled_from(_TYPES), min_size=1))
    return index, queries, draw(st.integers(1, n + 1)), wanted


def _exact_dot(row, query) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(row.tolist(), query.tolist())), Fraction(0))


def _set_type_rows(events):
    """SupportIndex.type_rows as first built: a set of types per row."""
    rows = {}
    for row, row_events in enumerate(events):
        for event_type in {event[1] for event in row_events}:
            rows.setdefault(event_type, []).append(row)
    return rows


@st.composite
def _group_cases(draw):
    """(index, queries, k, group size) where some queries' float32 scores are not finite.

    A query scaled past float32's range (1e39) has +inf, -inf or NaN float32
    scores while np.dot stays finite, beside queries whose scores prune. Rows
    may be turned to the signs of such a query, so that k of them score +inf
    and the k-th best is +inf; a row scaled the same way makes every query's
    scores non-finite. Types hold from none to every row, and k may pass N.
    """
    dimension = draw(st.integers(1, 8))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(n, dimension))
    queries = rng.normal(size=(draw(st.integers(1, 7)), dimension))
    for j in draw(st.sets(st.integers(0, len(queries) - 1), max_size=3)):
        queries[j] *= 1e39
        for row in draw(st.sets(st.integers(0, n - 1), max_size=n)):
            vectors[row] = np.abs(vectors[row]) * np.sign(queries[j])
    if draw(st.integers(0, 9)) == 0:
        vectors[draw(st.integers(0, n - 1))] *= 1e39
    vectors.setflags(write=False)
    ids = [f"v-{i:04d}" for i in rng.permutation(n)]
    types = [draw(st.sets(st.sampled_from(_TYPES))) for _ in ids]
    index = SupportIndex(examples=_typed(ids, types), vectors=vectors)
    return index, queries, draw(st.integers(1, n + 2)), draw(st.integers(1, 3))


def _shortlist(rows, approx, k, cut):
    """One query's rows within `cut` of the k-th best approximate score among them."""
    if len(rows) <= k or not np.isfinite(cut):
        return rows
    scores = approx[rows]
    threshold = np.float64(np.partition(scores, len(rows) - k)[len(rows) - k]) - cut
    return rows[scores >= threshold]


def _per_query_hits(index, queries, k):
    """(rows, shortlists by type) of each query, each cut taken for one query at a time."""
    out = []
    for start in range(0, len(queries), retrieval._QUERY_GROUP):
        group = queries[start : start + retrieval._QUERY_GROUP]
        approx = max_square = None
        if len(index) > k:
            approx, max_square = retrieval._approx_scores(index.vectors, group)
        for j, q in enumerate(group):
            column = None if approx is None else approx[:, j]
            cut = np.inf
            if column is not None and np.isfinite(column).all():
                args = (index.dimension, max_square, float(np.dot(q, q)))
                cut = 2 * (retrieval._float32_error_bound(*args) + retrieval._dot_error_bound(*args))
            top = _shortlist(np.arange(len(index)), column, k, cut).tolist()
            by_type = {t: _shortlist(rows, column, k, cut).tolist() for t, rows in index.type_rows.items()}
            out.append((retrieval._ranked(index, top, q, k), by_type))
    return out


class _NoBlasArray(np.ndarray):
    """An array whose BLAS products (@, np.matmul, a matrix .dot) fail the test."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        assert ufunc is not np.matmul, "retrieval ran a BLAS product: @ or np.matmul"
        plain = lambda x: x.view(np.ndarray) if isinstance(x, np.ndarray) else x
        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

    def dot(self, other, *args):
        assert self.ndim == 1 and np.ndim(other) == 1, "retrieval ran a BLAS matrix .dot"
        return self.view(np.ndarray).dot(other, *args)


class _NoBlasNumpy:
    """numpy as retrieval sees it, forwarded, but without BLAS products.

    Every array a numpy function returns is a _NoBlasArray view, so that @
    on it fails; dot takes vectors only; matmul, inner, tensordot and vdot
    fail; and einsum takes no `optimize`, with which it may call BLAS.
    vecdot, the scan's kernel, passes: it takes one dot product per (row,
    query) pair on the calling thread, which wakes no BLAS thread
    (test_a_search_leaves_blas_threads_idle measures that).
    """

    def __getattr__(self, name):
        value = getattr(np, name)
        if not callable(value) or isinstance(value, type):
            return value

        def forwarded(*args, **kwargs):
            result = value(*args, **kwargs)
            return result.view(_NoBlasArray) if type(result) is np.ndarray else result

        return forwarded

    def dot(self, a, b, *args):
        assert np.ndim(a) == 1 and np.ndim(b) == 1, "retrieval ran a BLAS matrix product"
        return np.dot(a, b, *args)

    def einsum(self, *operands, **kwargs):
        assert "optimize" not in kwargs, "einsum's optimizer may hand the product to BLAS"
        return self.__getattr__("einsum")(*operands, **kwargs)

    def _refused(self, *args, **kwargs):
        raise AssertionError("retrieval ran a BLAS product")

    matmul = inner = tensordot = vdot = _refused


def _per_token_embed_batch(dimension, texts):
    """The embedder's original loop: one sha1 and one vector update per token occurrence."""
    out = []
    for text in texts:
        vec = np.zeros(dimension, dtype=np.float64)
        for token in normalize(text).split():
            digest = hashlib.sha1(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:8], "big") % dimension] += 1.0 if digest[8] & 1 else -1.0
        out.append(vec)
    return out


def _unit_and_vstack_index(examples, embedding_provider, batch_size=256):
    """build_index's original assembly over LabeledSegments: rows / np.linalg.norm, np.vstack.

    Each batch's dimensions are checked before its norms: a ragged batch, or
    one whose D is not the first batch's, stops the build.
    """
    if not examples:
        raise EmbeddingError("cannot build an index over an empty support set")
    seen = set()
    for ex in examples:
        if ex.id in seen:
            raise EmbeddingError(f"duplicate example id {ex.id!r}")
        seen.add(ex.id)
    rows = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        vecs = embedding_provider.embed_batch([ex.text for ex in chunk])
        dims = {len(vec) for vec in vecs}
        if len(dims) == 1 and rows:  # a uniform batch against the first batch's D
            dims.add(len(rows[0]))
        if len(dims) > 1:
            raise EmbeddingError(f"embedding dimension mismatch across examples: {sorted(dims)}")
        for ex, vec in zip(chunk, vecs):
            vec = np.asarray(vec, dtype=np.float64)
            norm = float(np.linalg.norm(vec))
            if norm <= 1e-6:
                raise EmbeddingError(f"example {ex.id!r}: zero embedding vector")
            if not np.isfinite(norm):
                raise EmbeddingError(f"example {ex.id!r}: embedding vector norm is not finite")
            rows.append(vec / norm)
    return np.vstack(rows)


def _per_row_norms(rows, what):
    """_norms's original loop: one row.dot(row) per row, then the same checks."""
    with np.errstate(over="ignore"):
        norms = np.sqrt([row.dot(row) for row in rows])
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 1e-6)))
    if bad.size:
        zero = norms[bad[0]] <= 1e-6
        problem = "zero embedding vector" if zero else "embedding vector norm is not finite"
        raise EmbeddingError(f"{what(bad[0])}: {problem}")
    return norms


@st.composite
def _norm_matrices(draw):
    """A C-contiguous float64 matrix whose rows span subnormal to near-overflow magnitudes.

    Each row has its own binary exponent, from float64's smallest subnormal
    (2**-1074) to 2**1023; some rows are zero, and some hold an inf or a NaN.
    """
    n = draw(st.integers(1, 6))
    dimension = draw(
        st.sampled_from([1, 2, 7, 8, 64, 383, 384, 385, 1024, 1100]) | st.integers(1, 1100)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponent = st.integers(-1074, 1023) | st.sampled_from([-1074, -1022, 0, 511, 512, 1023])
    exponents = [draw(exponent) for _ in range(n)]
    with np.errstate(over="ignore", under="ignore"):
        matrix = np.ldexp(rng.uniform(-1.0, 1.0, (n, dimension)), np.array(exponents)[:, None])
    for row in range(n):
        special = draw(st.sampled_from([None] * 6 + [0.0, np.inf, -np.inf, np.nan]))
        if special == 0.0:
            matrix[row] = 0.0
        elif special is not None:
            matrix[row, draw(st.integers(0, dimension - 1))] = special
    return np.ascontiguousarray(matrix)


def _outcome(build):
    """The built matrix, or the message of the EmbeddingError raised instead."""
    try:
        return build()
    except EmbeddingError as exc:
        return f"EmbeddingError: {exc}"


def _same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return got.shape == want.shape and np.array_equal(got, want)


# Every whitespace kind the tokenizer must split on, case-changing and
# length-changing letters, punctuation, and arbitrary short text.
_EMBED_PIECES = [
    " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u202f", "\u3000",
    "war", "WAR", "War", "İstanbul", "İ", "ΟΔΥΣΣΕΥΣ", "Σ", "straße", "ǅ", "a", "1", "war.", "\u0301",
]
_embed_texts = st.lists(
    st.sampled_from(_EMBED_PIECES) | st.text(max_size=4), max_size=12
).map("".join)


class _VectorsByText:
    """An embedding provider that looks each text up in a table, and counts its calls."""

    def __init__(self, table, default=(1.0, 0.0, 0.0)):
        self.table = table
        self.default = default
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        return [np.asarray(self.table.get(t, self.default), dtype=np.float64) for t in texts]


class TestHashedBagEmbedder:
    @settings(max_examples=200, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2, 7, 64, 384]),
        batches=st.lists(st.lists(_embed_texts, max_size=6), max_size=3),
    )
    def test_batches_match_the_per_token_loop(self, dimension, batches):
        # One instance across batches: later batches reuse the memo.
        embedder = HashedBagEmbedder(dimension=dimension)
        for batch in batches:
            got = embedder.embed_batch(batch)
            want = _per_token_embed_batch(dimension, batch)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g, w)

    def test_threads_sharing_one_memo_embed_exactly(self):
        texts = [f"w{k % 50} W{k % 7} x{k} word{k % 13}" for k in range(400)]
        want = _per_token_embed_batch(64, texts)
        embedder = HashedBagEmbedder(dimension=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(embedder.embed_batch, texts[start::8]) for start in range(8)
                ]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for start, vecs in enumerate(got):
            assert all(np.array_equal(g, w) for g, w in zip(vecs, want[start::8]))

    def test_hashes_only_the_tokens_it_lacks(self, monkeypatch):
        hashed = []
        bucket = HashedBagEmbedder._bucket

        def counting_bucket(self, token):
            hashed.append(token)
            return bucket(self, token)

        monkeypatch.setattr(HashedBagEmbedder, "_bucket", counting_bucket)
        embedder = HashedBagEmbedder(dimension=16)
        embedder.embed_batch(["the war began", "The WAR began again"])
        assert sorted(hashed) == ["again", "began", "the", "war"]
        hashed.clear()
        warm = embedder.embed_batch(["war the", "again began the war"])
        assert hashed == []
        cold = embedder.embed_batch(["the war ended", "began again"])
        assert hashed == ["ended"]
        assert np.array_equal(warm, _per_token_embed_batch(16, ["war the", "again began the war"]))
        assert np.array_equal(cold, _per_token_embed_batch(16, ["the war ended", "began again"]))

    def test_a_batch_is_one_count_matrix(self):
        counts = HashedBagEmbedder(dimension=8).embed_batch(["a b", "c", ""])
        assert counts.shape == (3, 8) and counts.dtype == np.float64
        assert counts.flags.c_contiguous
        assert HashedBagEmbedder(dimension=8).embed_batch([]).shape == (0, 8)

    def test_deterministic_across_instances(self):
        a = HashedBagEmbedder(dimension=32).embed_batch(["the war began"])[0]
        b = HashedBagEmbedder(dimension=32).embed_batch(["the war began"])[0]
        assert np.array_equal(a, b)

    def test_token_order_is_ignored(self):
        emb = HashedBagEmbedder(dimension=32)
        a, b = emb.embed_batch(["war the began", "began the war"])
        assert np.array_equal(a, b)

    def test_case_and_spacing_are_normalized(self):
        emb = HashedBagEmbedder(dimension=32)
        a, b = emb.embed_batch(["The  WAR began", "the war began"])
        assert np.array_equal(a, b)

    def test_default_dimension(self):
        vec = HashedBagEmbedder().embed_batch(["x"])[0]
        assert vec.shape == (DEFAULT_DIMENSION,)

    def test_embed_returns_unit_norm(self):
        (vec,) = embed_texts(["the war began"], HashedBagEmbedder(dimension=32))
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-12

    def test_empty_text_embeds_to_zero_and_is_rejected(self):
        with pytest.raises(EmbeddingError, match="text '   ': zero embedding vector"):
            embed_texts(["a war", "   "], HashedBagEmbedder(dimension=32))

    @settings(max_examples=150, deadline=None)
    @given(dimension=st.sampled_from([1, 7, 64]), texts=st.lists(_embed_texts, max_size=8))
    def test_batched_queries_equal_one_text_embeddings(self, dimension, texts):
        # The reference is the one-text-per-call path that retrieval took
        # before queries were batched, on a fresh embedder for every text.
        want = [HashedBagEmbedder(dimension=dimension).embed_batch([t])[0] for t in texts]
        if any(float(np.linalg.norm(w)) <= 1e-6 for w in want):
            with pytest.raises(EmbeddingError, match="zero embedding vector"):
                embed_texts(texts, HashedBagEmbedder(dimension=dimension))
            return
        got = embed_texts(texts, HashedBagEmbedder(dimension=dimension))
        assert len(got) == len(texts)
        for g, w in zip(got, want):
            assert np.array_equal(g, w / float(np.linalg.norm(w)))

    def test_a_provider_that_drops_query_vectors_is_rejected(self):
        class Short:
            def embed_batch(self, texts):
                return [np.ones(3)] * (len(texts) - 1)

        with pytest.raises(EmbeddingError, match="returned 1 vectors for 2 texts"):
            embed_texts(["a", "b"], Short())

    def test_bad_dimension_rejected(self):
        with pytest.raises(EmbeddingError):
            HashedBagEmbedder(dimension=0)


def _remote(url: str, **fields):
    return build_embedding_provider(ProviderConfig(kind="remote", endpoint=url, **fields))


class TestHttpEmbeddingProvider:
    def test_posts_texts_and_parses_vectors(self, http_server):
        http_server.default_response = (200, {"vectors": [[1.0, 0.0], [0.0, 1.0]]})
        provider = _remote(http_server.url)
        vecs = provider.embed_batch(["a", "b"])
        assert len(vecs) == 2
        assert http_server.requests[0]["body"] == {"texts": ["a", "b"]}

    def test_batching_splits_requests(self, http_server):
        vector_of = {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]}
        http_server.responder = lambda body: (
            200, {"vectors": [vector_of[text] for text in body["texts"]]}
        )
        provider = _remote(http_server.url, batch_size=2)
        vecs = provider.embed_batch(["a", "b", "c"])
        assert [vec.tolist() for vec in vecs] == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        assert sorted(r["body"]["texts"] for r in http_server.requests) == [["a", "b"], ["c"]]

    def test_wrong_vector_count_rejected(self, http_server):
        http_server.default_response = (200, {"vectors": [[1.0, 0.0]]})
        provider = _remote(http_server.url)
        with pytest.raises(EmbeddingError):
            provider.embed_batch(["a", "b"])


class TestBuildIndex:
    def test_builds_unit_rows_aligned_with_ids(self):
        examples = _examples(5)
        index = build_index(examples, HashedBagEmbedder(dimension=16))
        assert len(index) == 5
        assert index.dimension == 16
        assert index.example_ids == tuple(ex.id for ex in examples)
        norms = np.linalg.norm(index.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_vectors_are_read_only(self):
        index = build_index(_examples(3), HashedBagEmbedder(dimension=8))
        with pytest.raises(ValueError):
            index.vectors[0, 0] = 9.0

    def test_empty_support_rejected(self):
        with pytest.raises(EmbeddingError):
            build_index([], HashedBagEmbedder(dimension=8))

    def test_duplicate_ids_rejected(self):
        examples = labeled_rows([
            LabeledSegment(id="dup", text="one"),
            LabeledSegment(id="dup", text="two"),
        ])
        with pytest.raises(EmbeddingError, match="dup"):
            build_index(examples, HashedBagEmbedder(dimension=8))

    def test_blank_example_text_rejected(self):
        examples = labeled_rows([LabeledSegment(id="a", text="   ")])
        with pytest.raises(EmbeddingError):
            build_index(examples, HashedBagEmbedder(dimension=8))

    @settings(max_examples=40, deadline=None)
    @given(
        dimension=st.sampled_from([1, 3, 64, 384]),
        pool=st.lists(_embed_texts, min_size=1, max_size=5),
        n=st.sampled_from([255, 256, 257, 512, 513, 600]) | st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_unit_and_vstack_reference(self, dimension, pool, n, seed):
        # Up to three 256-row chunks; texts repeat, and a blank or cancelling
        # text must fail with the same message in both.
        rng = random.Random(seed)
        examples = [LabeledSegment(f"ex-{k:04d}", rng.choice(pool)) for k in range(n)]
        rows = labeled_rows(examples)
        got = _outcome(lambda: build_index(rows, HashedBagEmbedder(dimension)).vectors)
        want = _outcome(lambda: _unit_and_vstack_index(examples, HashedBagEmbedder(dimension)))
        assert _same_outcome(got, want)

    @settings(max_examples=300, deadline=None)
    @given(matrix=_norm_matrices())
    def test_norms_are_bit_identical_to_the_per_row_loop(self, matrix):
        def what(row):
            return f"row {row}"

        want = _outcome(lambda: _per_row_norms(matrix, what))
        got = _outcome(lambda: retrieval._norms(matrix, what))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()

    def test_a_list_of_vectors_becomes_one_matrix(self):
        class Listed:
            def embed_batch(self, texts):
                return [[1.0, 2.0], np.array([3.0, 4.0], dtype=np.float32), (0.0, 5.0)]

        got = embed_texts(["a", "b", "c"], Listed())
        assert got.shape == (3, 2) and got.flags.c_contiguous
        want = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 5.0]]) / np.array([[5**0.5], [5.0], [5.0]])
        assert got.tobytes() == want.tobytes()
        matrix = np.arange(6.0).reshape(3, 2)

        class Matrix:
            def embed_batch(self, texts):
                return matrix

        # A reply that is a matrix already is used as it is.
        assert retrieval._matrix(Matrix().embed_batch(["a", "b", "c"]), 3, "texts") is matrix

    def test_memory_holds_the_matrix_and_a_few_batches(self):
        # Embedding the whole support set at once would add another matrix.
        n, dimension = 2000, 384
        examples = labeled_rows(
            LabeledSegment(f"ex-{i:04d}", f"text {i % 97} word{i % 31} row {i % 7}")
            for i in range(n)
        )
        embedder = HashedBagEmbedder(dimension)
        build_index(examples[:300], embedder)  # warms the memo, which is not the index's
        tracemalloc.start()
        try:
            index = build_index(examples, embedder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix, batch = index.vectors.nbytes, 256 * dimension * 8
        assert matrix <= peak <= matrix + 3 * batch

    @pytest.mark.parametrize(
        "texts,table",
        [
            ([], {}),
            (["a", "b", "a"], {}),
            (["t"] * 300 + ["blank"] + ["t"] * 10, {"blank": (0.0, 0.0, 0.0)}),
            (["t"] * 300 + ["short"], {"short": (1.0, 2.0)}),
            (["short"] + ["t"] * 300 + ["blank"], {"short": (1.0, 2.0), "blank": (0.0, 0.0, 0.0)}),
            (["long", "t", "short"], {"short": (1.0, 2.0), "long": (1.0,) * 5}),
            (["t"] * 256 + ["long", "blank"], {"long": (1.0,) * 4, "blank": (0.0,) * 4}),
        ],
        ids=[
            "empty", "duplicate-id", "zero-vector-in-second-chunk", "dimension-mismatch",
            "zero-vector-after-a-mismatch", "three-dimensions", "second-chunk-in-another-dimension",
        ],
    )
    def test_error_paths_match_the_reference(self, texts, table):
        ids = [f"ex-{k:04d}" if t != "a" else "dup" for k, t in enumerate(texts)]
        examples = [LabeledSegment(i, t) for i, t in zip(ids, texts)]
        provider = _VectorsByText(table)
        got = _outcome(lambda: build_index(labeled_rows(examples), provider).vectors)
        want = _outcome(lambda: _unit_and_vstack_index(examples, provider))
        assert isinstance(want, str) and got == want

    @pytest.mark.parametrize(
        "texts,calls",
        [
            (["odd"] + ["t"] * 599, 1),
            (["t"] * 256 + ["odd"] * 344, 2),
        ],
        ids=["ragged-first-chunk", "second-chunk-in-another-dimension"],
    )
    def test_a_dimension_mismatch_stops_the_build_at_its_chunk(self, texts, calls):
        provider = _VectorsByText({"odd": (1.0, 0.0, 0.0, 0.0)})
        examples = labeled_rows(LabeledSegment(f"ex-{k:04d}", t) for k, t in enumerate(texts))
        with pytest.raises(EmbeddingError) as raised:
            build_index(examples, provider)
        assert str(raised.value) == "embedding dimension mismatch across examples: [3, 4]"
        assert provider.calls == calls

    def test_a_ragged_first_chunk_posts_only_its_own_requests(self, http_server):
        # 600 texts are 3 chunks of build_index's 256, each posted 64 texts a request.
        http_server.responder = lambda body: (
            200, {"vectors": [[1.0] * (4 if t == "odd" else 3) for t in body["texts"]]}
        )
        examples = labeled_rows(
            LabeledSegment(f"ex-{k:04d}", "odd" if k == 100 else "t") for k in range(600)
        )
        with pytest.raises(EmbeddingError, match=r"across examples: \[3, 4\]$"):
            build_index(examples, _remote(http_server.url, batch_size=64))
        assert len(http_server.requests) == 4

    def test_a_ragged_reply_names_the_mismatch_before_its_zero_vector(self):
        provider = _VectorsByText({"blank": (0.0, 0.0, 0.0), "short": (1.0, 2.0)})
        with pytest.raises(EmbeddingError, match=r"^embedding dimension mismatch across texts"):
            embed_texts(["blank", "short"], provider)
        examples = labeled_rows([LabeledSegment("a", "blank"), LabeledSegment("b", "short")])
        with pytest.raises(EmbeddingError, match=r"^embedding dimension mismatch across examples"):
            build_index(examples, provider)

    @pytest.mark.parametrize(
        "reply", [[1.0, 2.0], np.ones((2, 2, 2))], ids=["one-dimensional", "three-dimensional"]
    )
    def test_a_reply_that_is_not_a_matrix_is_an_embedding_error(self, reply):
        class Replying:
            def embed_batch(self, texts):
                return reply

        with pytest.raises(EmbeddingError, match="returned an array of shape"):
            embed_texts(["a", "b"], Replying())
        with pytest.raises(EmbeddingError, match="returned an array of shape"):
            build_index(_examples(2), Replying())

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_remote_index_is_bit_identical_at_any_max_in_flight(self, http_server, batch_size):
        local = HashedBagEmbedder(dimension=64)
        http_server.responder = lambda body: (
            200, {"vectors": [vec.tolist() for vec in local.embed_batch(body["texts"])]}
        )
        # build_index embeds 256 texts at a time: 300 rows are batches of 256
        # and 44; 600 rows are three, of 256, 256 and 88, the later two
        # streamed. Each batch is posted batch_size texts a request, and no
        # request spans two batches.
        for n in (300, 600):
            texts = [f"text {i % 37} row {i}" for i in range(n)]
            examples = labeled_rows(LabeledSegment(f"ex-{i:03d}", t) for i, t in enumerate(texts))
            want = build_index(examples, HashedBagEmbedder(dimension=64)).vectors
            payloads = sorted(
                texts[first : min(first + batch_size, start + 256)]
                for start in range(0, n, 256)
                for first in range(start, min(start + 256, n), batch_size)
            )
            for max_in_flight in (1, 4):
                http_server.requests.clear()
                provider = _remote(
                    http_server.url, batch_size=batch_size, max_in_flight=max_in_flight
                )
                assert build_index(examples, provider).vectors.tobytes() == want.tobytes()
                assert sorted(r["body"]["texts"] for r in http_server.requests) == payloads

    @pytest.mark.parametrize("row", [5, 300], ids=["first-batch", "second-batch"])
    def test_a_vector_of_no_finite_numbers_names_its_example(self, http_server, row):
        # Row 300 is text 44 of the second batch of 256: the error names the
        # example, not the text's position within its batch.
        vector = {"bad": [float("nan"), 1.0], "t": [1.0, 0.0]}
        http_server.responder = lambda body: (200, {"vectors": [vector[t] for t in body["texts"]]})
        examples = labeled_rows(
            LabeledSegment(f"ex-{k:04d}", "bad" if k == row else "t") for k in range(301)
        )
        message = f"example 'ex-{row:04d}': embedding endpoint returned no vector of finite numbers"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            build_index(examples, _remote(http_server.url, batch_size=64))

    @pytest.mark.parametrize("max_in_flight", [1, 4])
    @pytest.mark.parametrize(
        "rows,vector",
        [(range(256, 512), (1.0, 0.0, 0.0, 0.0)), ([300], (0.0, 0.0, 0.0))],
        ids=["dimension-change", "zero-vector"],
    )
    def test_a_bad_streamed_batch_closes_the_stream(self, http_server, rows, vector, max_in_flight):
        # 1,000 rows are four batches of 256, 256, 256 and 232, each posted
        # in four requests of 64. Batch 2 is bad, and its last request is
        # answered late: a later request may be sent only within the window.
        texts = [f"text {k}" for k in range(1000)]
        table = {texts[k]: vector for k in rows}
        examples = labeled_rows(LabeledSegment(f"ex-{k:04d}", t) for k, t in enumerate(texts))
        in_process = _outcome(lambda: build_index(examples, _VectorsByText(table)))
        assert isinstance(in_process, str)

        def respond(body):
            if body["texts"][0] == "text 448":
                time.sleep(0.1)
            return 200, {"vectors": [table.get(t, (1.0, 0.0, 0.0)) for t in body["texts"]]}

        http_server.responder = respond
        before = set(threading.enumerate())
        provider = _remote(http_server.url, batch_size=64, max_in_flight=max_in_flight)
        assert _outcome(lambda: build_index(examples, provider)) == in_process
        assert 8 <= len(http_server.requests) <= 8 + max_in_flight
        pool = [t for t in set(threading.enumerate()) - before if "ThreadPoolExecutor" in t.name]
        assert pool == []

    def test_a_provider_that_drops_vectors_is_rejected(self):
        class Short:
            def embed_batch(self, texts):
                return [np.ones(3)] * (len(texts) - 1)

        with pytest.raises(EmbeddingError, match="returned 1 vectors for 2 texts"):
            build_index(_examples(2), Short())

    def test_row_whose_norm_overflows_is_rejected_without_a_warning(self):
        # Under the suite's error::RuntimeWarning filter a numpy overflow
        # warning would fail this test before the EmbeddingError.
        examples = _examples(3)
        table = {examples[1].text: (1e308, 1e308, 0.0)}
        with pytest.raises(EmbeddingError, match="embedding vector norm is not finite"):
            build_index(examples, _VectorsByText(table))


class TestSearch:
    def test_exact_against_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(7)
        index = _index_from_vectors(rng.normal(size=(200, 16)))
        for _ in range(25):
            q = rng.normal(size=16)
            q /= np.linalg.norm(q)
            got = _search_one(index, q, 10)
            want = brute_force_top_k(index, q, 10)
            assert got == want

    def test_ties_break_by_ascending_id(self):
        # Two identical rows with different ids: both score identically.
        index = _index_from_vectors([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ids=["b", "a", "c"])
        hits = _search_one(index, np.array([1.0, 0.0]), 2)
        assert [h[0] for h in hits] == ["a", "b"]

    def test_k_larger_than_index_returns_all(self):
        index = _index_from_vectors(np.eye(4))
        assert len(_search_one(index, np.array([1.0, 0, 0, 0]), 99)) == 4

    def test_scores_descend(self):
        rng = np.random.default_rng(3)
        index = _index_from_vectors(rng.normal(size=(50, 8)))
        q = rng.normal(size=8)
        q /= np.linalg.norm(q)
        hits = _search_one(index, q, 50)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_where_filter_restricts_candidates(self):
        # The same-type filter: only rows with an event of a wanted type.
        index = _index_from_vectors(np.eye(3), ids=["a", "b", "c"], types=[{"X"}, {"Y"}, {"Y", "X"}])
        hits = _search_one(index, np.array([1.0, 0, 0]), 3, types=["Y"])
        assert [h[0] for h in hits] == ["b", "c"]

    def test_where_filter_matches_brute_force(self):
        rng = np.random.default_rng(11)
        ids = [f"v-{i:04d}" for i in range(60)]
        keep = lambda ex: ex.id.endswith(("0", "2", "4", "6", "8"))
        types = [{"even"} if i % 2 == 0 else {"odd"} for i in range(60)]
        index = _index_from_vectors(rng.normal(size=(60, 8)), ids=ids, types=types)
        q = rng.normal(size=8)
        q /= np.linalg.norm(q)
        assert _search_one(index, q, 5, types=["even"]) == brute_force_top_k(index, q, 5, where=keep)

    @pytest.mark.parametrize("chunk", range(1, 8))
    def test_masked_scan_in_small_chunks_matches_brute_force(self, monkeypatch, chunk):
        # Random row sets as event types, answered from the per-type shortlists
        # of a scan in chunks of `chunk` rows.
        monkeypatch.setattr(retrieval, "_SCAN_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        vectors = rng.normal(size=(60, 12))
        vectors[30:40] = vectors[20:30]  # exact ties, broken by id
        masks = {
            "all": np.ones(60, dtype=bool),
            "sparse": rng.random(60) < 0.1,
            "seventh": np.arange(60) % 7 == 3,
            "last": np.arange(60) == 59,
        }
        types = [{name for name, mask in masks.items() if mask[row]} for row in range(60)]
        index = _index_from_vectors(vectors, types=types)
        wanted_sets = [["all"], ["sparse"], ["seventh"], ["last"], ["none"], ["sparse", "last"],
                       ["seventh", "sparse", "none"]]
        for wanted in wanted_sets:
            keep = lambda ex, wanted=wanted: any(ev["type"] in wanted for ev in ex.gold_events)
            for q in (rng.normal(size=12), index.vectors[25]):
                for k in (1, 3, 10, 60):
                    assert _search_one(index, q, k, types=wanted) == brute_force_top_k(index, q, k, where=keep)

    def test_same_type_search_without_shortlists_rejected(self):
        index = _index_from_vectors(np.eye(3), types=[{"X"}, {"X"}, {"Y"}])
        (hits,) = search(index, np.array([[1.0, 0, 0]]), 2)
        assert hits.shortlists is None
        with pytest.raises(EmbeddingError, match="by_type=True"):
            same_type_rows(index, hits, ["X"])

    def test_non_finite_rows_fall_back_to_the_exact_scan(self):
        vectors = np.array([[np.inf, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]])
        vectors.setflags(write=False)
        types = [{"no-nan"}, {"finite", "no-nan"}, {"finite", "no-nan"}, set()]
        examples = _typed(("a", "b", "c", "d"), types)
        index = SupportIndex(examples=examples, vectors=vectors)
        q = np.array([1.0, 0.0])
        assert _search_one(index, q, 1, types=["finite"]) == [("b", 1.0)]
        assert _search_one(index, q, 1, types=["no-nan"]) == [("a", np.inf)]
        # Without the NaN row the error bound is inf, and so is the k-th best
        # approximate score: the cut must not compute inf - inf, which warns.
        no_nan = SupportIndex(examples=examples[:3], vectors=vectors[:3])
        assert _search_one(no_nan, q, 1) == [("a", np.inf)]
        assert _search_one(no_nan, q, 1, types=["finite"]) == [("b", 1.0)]

    def test_rows_whose_squares_underflow_keep_the_top_row(self):
        # Squares of 1e-300 entries underflow to 0, yet the dot products with
        # a unit-scale query round at the 1e-316 level: the candidate cut must
        # not treat these rows as exactly scored.
        ids = ("d", "c", "b", "a")
        examples = labeled_rows(LabeledSegment(id=i, text=i) for i in ids)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            row = rng.normal(size=64) * 1e-300
            neighbours = [np.nextafter(row, np.inf), np.nextafter(row, -np.inf)]
            vectors = np.array([row, *neighbours, np.zeros(64)])
            vectors.setflags(write=False)
            index = SupportIndex(examples=examples, vectors=vectors)
            q = rng.normal(size=64)
            assert _search_one(index, q, 1) == brute_force_top_k(index, q, 1)
            assert _search_one(index, row, 1) == brute_force_top_k(index, row, 1)

    @settings(max_examples=300, deadline=None)
    @given(case=_search_cases(), group=st.integers(1, 4), chunk=st.integers(1, 8))
    def test_exact_against_brute_force_on_adversarial_rows(self, case, group, chunk):
        # Small query groups and scan chunks make a few queries cross both.
        # The unmasked top k, and with wanted types the same-type top k from
        # the shortlists, of every query.
        index, queries, k, wanted = case
        keep = lambda ex: any(ev["type"] in wanted for ev in ex.gold_events)
        # An infinite entry times a zero one is NaN, and numpy's dot warns of it.
        finite = np.isfinite(index.vectors).all() and np.isfinite(queries).all()
        invalid = "warn" if finite else "ignore"
        with pytest.MonkeyPatch.context() as patch, np.errstate(invalid=invalid):
            patch.setattr(retrieval, "_QUERY_GROUP", group)
            patch.setattr(retrieval, "_SCAN_CHUNK", chunk)
            found = search(index, queries, k, by_type=wanted is not None)
            got = [_scored(index, hits.rows, q) for hits, q in zip(found, queries)]
            want = [brute_force_top_k(index, q, len(index)) for q in queries]
            if wanted is not None:
                got += [_scored(index, same_type_rows(index, hits, wanted), q) for hits, q in zip(found, queries)]
                want += [brute_force_top_k(index, q, len(index), where=keep) for q in queries]
        assert len(found) == len(queries)
        for hits, candidates in zip(got, want):
            if any(np.isnan(score) for _, score in candidates):
                # NaN scores have no order, so only the count is defined.
                assert len(hits) == min(k, len(candidates))
            else:
                assert hits == candidates[:k]

    @settings(max_examples=300, deadline=None)
    @given(group=st.integers(1, 3), chunk=st.integers(1, 8), data=st.data())
    def test_float32_scan_is_exact_on_near_ties_and_subnormal_components(self, group, chunk, data):
        index, queries, k, wanted = data.draw(_float32_cases(chunk))
        keep = lambda ex: any(ev["type"] in wanted for ev in ex.gold_events)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval, "_QUERY_GROUP", group)
            patch.setattr(retrieval, "_SCAN_CHUNK", chunk)
            found = search(index, queries, k, by_type=True)
            _, max_square = retrieval._approx_scores(index.vectors, queries)
        assert max_square == np.einsum("ij,ij->i", index.vectors, index.vectors).max()
        for hits, q in zip(found, queries):
            assert _scored(index, hits.rows, q) == brute_force_top_k(index, q, k)
            got = _scored(index, same_type_rows(index, hits, wanted), q)
            assert got == brute_force_top_k(index, q, k, where=keep)

    @settings(max_examples=100, deadline=None)
    @given(case=_float32_cases())
    def test_scores_are_within_their_error_bounds(self, case):
        # Against the exact rational dot product: the float32 scan's score is
        # within _float32_error_bound and np.dot's within _dot_error_bound.
        index, queries, _, _ = case
        approx, max_square = retrieval._approx_scores(index.vectors, queries)
        assert max_square == np.einsum("ij,ij->i", index.vectors, index.vectors).max()
        for j, q in enumerate(queries):
            args = (index.dimension, max_square, float(np.dot(q, q)))
            bound32 = retrieval._float32_error_bound(*args)
            bound64 = retrieval._dot_error_bound(*args)
            for i, row in enumerate(index.vectors):
                exact = _exact_dot(row, q)
                assert abs(Fraction(float(approx[i, j])) - exact) <= Fraction(bound32)
                assert abs(Fraction(float(np.dot(row, q))) - exact) <= Fraction(bound64)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, 5, 10], ids=["first-chunk", "middle-chunk", "last-chunk"])
    def test_a_non_finite_row_in_any_chunk_turns_pruning_off(self, monkeypatch, value, row):
        # Eleven rows in chunks of 4, 4 and 3. A NaN square in any chunk must
        # reach the maximum square, as Python's max would drop a later one.
        monkeypatch.setattr(retrieval, "_SCAN_CHUNK", 4)
        rng = np.random.default_rng(row)
        vectors = rng.normal(size=(11, 6))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors[row, 2] = value
        vectors.setflags(write=False)
        types = [{_TYPES[i % 2]} for i in range(11)]
        index = SupportIndex(examples=_typed([f"v-{i:02d}" for i in range(11)], types), vectors=vectors)
        queries = rng.normal(size=(2, 6))
        with np.errstate(invalid="ignore"):
            _, max_square = retrieval._approx_scores(vectors, queries)
            found = search(index, queries, 1, by_type=True)
        assert np.isnan(max_square) if np.isnan(value) else max_square == np.inf
        for hits in found:
            for event_type, rows in hits.shortlists.items():
                assert rows.tolist() == index.type_rows[event_type].tolist()

    def test_searches_run_no_blas_product(self, monkeypatch):
        # A BLAS product wakes the BLAS thread pool, whose threads then spin
        # between calls. A by-type search over five chunks, and the same-type
        # rows after it, must not run one.
        monkeypatch.setattr(retrieval, "_SCAN_CHUNK", 4)
        rng = np.random.default_rng(5)
        types = [{_TYPES[i % 3]} for i in range(20)]
        index = _index_from_vectors(rng.normal(size=(20, 16)), types=types)
        queries = rng.normal(size=(3, 16))
        want = search(index, queries, 4, by_type=True)
        guarded = SupportIndex(index.examples, index.vectors.view(_NoBlasArray))
        monkeypatch.setattr(retrieval, "np", _NoBlasNumpy())
        found = search(guarded, queries.view(_NoBlasArray), 4, by_type=True)
        rows = [same_type_rows(guarded, hits, ["A", "C"]) for hits in found]
        assert [hits.rows for hits in found] == [hits.rows for hits in want]
        assert rows == [same_type_rows(index, hits, ["A", "C"]) for hits in want]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_a_search_leaves_blas_threads_idle(self):
        # The BLAS library starts threads of its own, which spin for a while
        # after numpy's import and after each BLAS product, then sleep. Once
        # their start-up spin has settled, searches over 6,120 rows must add
        # no tick of user or system CPU to any thread that Python did not
        # start. A scan through np.matmul adds some.
        code = """
import json
import threading
import time
from pathlib import Path
import numpy as np
from eventpipe import retrieval
from eventpipe.model import LabeledRows

def ticks():
    started = {thread.native_id for thread in threading.enumerate()}
    out = {}
    for task in Path("/proc/self/task").iterdir():
        if int(task.name) not in started:
            stat = (task / "stat").read_text().rpartition(")")[2].split()
            out[task.name] = int(stat[11]) + int(stat[12])  # utime + stime
    return out

n = 6120
rng = np.random.default_rng(0)
vectors = rng.normal(size=(n, 384))
vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
ids = tuple(map(str, range(n)))
index = retrieval.SupportIndex(LabeledRows(ids, ids, tuple(((i, f"T{int(i) % 3}"),) for i in ids)), vectors)
before, settled = None, ticks()
for _ in range(40):
    if before == settled:
        break
    time.sleep(0.25)
    before, settled = settled, ticks()
for _ in range(3):
    retrieval.search(index, rng.normal(size=(22, 384)), 10, by_type=True)
after = ticks()
print(json.dumps({"settled": before == settled, "gained": {t: after[t] - settled[t] for t in settled}}))
"""
        src = str(Path(retrieval.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["settled"], "the BLAS threads' start-up spin did not settle"
        assert all(tick == 0 for tick in result["gained"].values()), result["gained"]

    @settings(max_examples=300, deadline=None)
    @given(case=_group_cases())
    def test_group_shortlists_equal_the_per_query_shortlists(self, case):
        # Each type's shortlists, taken for a whole group at once, and the top
        # k, against the same cuts taken one query at a time. inf - inf, in
        # a query whose k-th best float32 score is +inf, must not warn.
        index, queries, k, group = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval, "_QUERY_GROUP", group)
            found = search(index, queries, k, by_type=True)
            want = _per_query_hits(index, queries, k)
        assert len(found) == len(want)
        for hits, (rows, by_type) in zip(found, want):
            assert hits.rows == rows
            assert {t: shortlist.tolist() for t, shortlist in hits.shortlists.items()} == by_type

    def test_float32_bound_counts_each_rounding(self):
        # 384 unit-norm dimensions: conversion 2u + u^2 times the doubled
        # norms, then gamma_384 with u = 2**-24, each about 6e-8 and 2.3e-5.
        u = 2.0**-24
        bound = retrieval._float32_error_bound(384, 1.0, 1.0)
        assert 4 * (2 * u + 384 * u) < bound < 4 * (2 * u + 384 * u) * (1 + 1e-4)
        assert retrieval._float32_error_bound(384, 0.0, 0.0) >= 384 * 2.0**-149

    def test_searches_leave_numpy_ma_unimported(self):
        # np.unique and its kin import numpy.ma, which then stays resident
        # (about 1 MB): neither search path may pull it in.
        code = """
import sys
import numpy as np
from eventpipe.model import LabeledRows
from eventpipe.retrieval import SupportIndex, same_type_rows, search
events = tuple(((f"t{row}", f"T{row % 3}"),) for row in range(40))
examples = LabeledRows(tuple(map(str, range(40))), tuple(map(str, range(40))), events)
index = SupportIndex(examples, np.random.default_rng(0).normal(size=(40, 8)))
(hits,) = search(index, np.ones((1, 8)), 3, by_type=True)
same_type_rows(index, hits, ["T0", "T2"])
print("numpy.ma" in sys.modules)
"""
        src = str(Path(retrieval.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.stdout.strip() == "False", proc.stderr

    def test_shortlists_hold_row_ids_near_k_per_type(self):
        # What a search keeps per query for the argument stage: a few row ids
        # per type, never a score per row.
        rng = np.random.default_rng(21)
        n, k = 3000, 10
        types = [{f"T{row % 6}", f"T{row % 5 + 6}"} for row in range(n)]
        index = _index_from_vectors(rng.normal(size=(n, 32)), types=types)
        (hits,) = search(index, rng.normal(size=(1, 32)), k, by_type=True)
        assert set(hits.shortlists) == {f"T{t}" for t in range(11)}
        for event_type, rows in hits.shortlists.items():
            assert rows.dtype.kind == "i" and k <= len(rows) < 3 * k
            assert set(rows.tolist()) <= set(index.type_rows[event_type].tolist())
        assert sum(rows.nbytes for rows in hits.shortlists.values()) < 11 * 3 * k * 8

    def test_dimension_mismatch_rejected(self):
        index = _index_from_vectors(np.eye(4))
        for queries in (np.zeros((1, 5)), np.zeros((3, 3)), np.zeros(4), np.zeros((1, 1, 4))):
            with pytest.raises(EmbeddingError, match="does not match index dimension 4"):
                search(index, queries, 3)

    def test_k_zero_rejected(self):
        index = _index_from_vectors(np.eye(2))
        with pytest.raises(EmbeddingError):
            _search_one(index, np.array([1.0, 0.0]), 0)


EMBEDDING = {"kind": "mock", "dimension": 24}


def _saved_index(tmp_path):
    """(path, index, examples): an index of 20 examples saved under EMBEDDING."""
    examples = _examples(20)
    index = build_index(examples, HashedBagEmbedder(dimension=24))
    path = tmp_path / "support.index"
    save_index(index, path, embedding=EMBEDDING)
    return path, index, examples


def json_lines_index(index, embedding) -> bytes:
    """An index as the JSON-lines format before the current one wrote it."""
    header = {
        "count": len(index),
        "dimension": index.dimension,
        "embedding": embedding,
        "support_digest": retrieval._support_digest(index.examples),
    }
    rows = [{"id": i, "vector": row.tolist()} for i, row in zip(index.example_ids, index.vectors)]
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in [header, *rows]).encode()


class TestTypeRows:
    @settings(max_examples=200, deadline=None)
    @given(
        alphabet=st.sampled_from([("A",), ("A", "B", "C")]),
        data=st.data(),
    )
    def test_grouped_build_matches_the_set_based_build(self, alphabet, data):
        # Rows without events, a type repeated within a row, and one type only.
        rows = data.draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=4), max_size=30))
        events = tuple(tuple((f"t{i}", event_type) for i, event_type in enumerate(row)) for row in rows)
        ids = tuple(f"s{row}" for row in range(len(rows)))
        index = SupportIndex(LabeledRows(ids, ids, events), np.zeros((len(rows), 1)))
        built = index.type_rows
        want = _set_type_rows(events)
        assert set(built) == set(want)
        for event_type, type_rows in built.items():
            assert type_rows.dtype == np.int32
            assert type_rows.tolist() == want[event_type]


class TestPersistence:
    @pytest.mark.parametrize("kind", ["hashed", "dense"])
    def test_round_trip_is_bit_exact(self, tmp_path, kind):
        if kind == "hashed":
            examples = _examples(20)
            index = build_index(examples, HashedBagEmbedder(dimension=24))
        else:  # arbitrary floats, as a real embedding gives
            index = _index_from_vectors(np.random.default_rng(5).standard_normal((20, 24)))
            examples = index.examples
        path = tmp_path / "support.index"
        save_index(index, path, embedding=EMBEDDING)
        loaded = load_index(path, examples, embedding=EMBEDDING)
        assert loaded.vectors.tobytes() == index.vectors.tobytes()  # not just allclose
        assert loaded.vectors.dtype == np.float64 and not loaded.vectors.flags.writeable
        assert loaded.example_ids == index.example_ids
        assert loaded.examples == examples
        # The file stores no ids: row i belongs to examples[i].
        assert examples[3].id.encode() not in path.read_bytes()
        queries = index.vectors[[3, 17]]
        assert [hits.rows for hits in search(index, queries, 5)] == [
            hits.rows for hits in search(loaded, queries, 5)
        ]

    def test_support_digest_is_pinned(self):
        # A saved index is reused only while this digest matches, so a change
        # to it would make every index saved before the change stale.
        examples = labeled_rows([
            LabeledSegment("ex-1", "jets were shot down"),
            LabeledSegment("ex-2", 'Les élections, "2024"'),
        ])
        assert retrieval._support_digest(examples) == (
            "b3f2d526647c5b093b93d8a655e2642d105cd66f376d3dc322bf4110c06a70fe"
        )

    def test_save_replaces_the_file_whole(self, tmp_path):
        path, index, examples = _saved_index(tmp_path)
        save_index(index, path, embedding={"kind": "mock", "dimension": 25})
        assert load_index(path, examples, embedding=EMBEDDING) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["support.index"]

    @pytest.mark.parametrize(
        "header",
        [
            '{"dim": 3}',
            '{"dimension": 3}',
            '{"count": 1}',
            '{"count": "many", "dimension": 3}',
            "5",
            '"dimension"',
            '{"format": "eventpipe-index/1"}',
            "{",
            "\n",
            "\xff",
            pytest.param("[" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_malformed_header_is_an_input_error(self, tmp_path, header):
        path = tmp_path / "support.index"
        path.write_bytes(header.encode("latin-1") + b'\n{"id": "ex-000", "vector": [1.0]}\n')
        with pytest.raises(DatasetError, match=re.escape(f"{path}: ") + ".*`eventpipe build-index`"):
            load_index(path, _examples(1), embedding=EMBEDDING)

    @pytest.mark.parametrize("form", ["lines", "array"])
    def test_json_index_of_the_older_format_is_an_input_error(self, tmp_path, form):
        examples = _examples(3)
        index = build_index(examples, HashedBagEmbedder(dimension=24))
        path = tmp_path / "support.index"
        old = json_lines_index(index, EMBEDDING)
        if form == "array":
            old = json.dumps([json.loads(line) for line in old.splitlines()]).encode()
        path.write_bytes(old)
        with pytest.raises(DatasetError, match=re.escape(f"{path}: ") + ".*build-index"):
            load_index(path, examples, embedding=EMBEDDING)
        assert path.read_bytes() == old

    @pytest.mark.parametrize(
        "header_edit,support",
        [
            ({"embedding": {"kind": "mock", "dimension": 25}}, slice(None)),
            ({"embedding": None}, slice(None)),
            ({"support_digest": "0" * 64}, slice(None)),
            ({}, slice(19)),
            ({}, slice(None, None, -1)),
        ],
        ids=["other-embedding", "null-embedding", "other-digest", "support-cut", "support-reversed"],
    )
    def test_stale_header_returns_none_with_a_corrupt_body_behind_it(
        self, tmp_path, header_edit, support
    ):
        path, _, examples = _saved_index(tmp_path)
        header = {**json.loads(path.read_bytes().split(b"\n", 1)[0]), **header_edit}
        path.write_bytes(json.dumps(header).encode() + b"\n\x93NUMPY garbage \xff")
        assert load_index(path, examples[support], embedding=EMBEDDING) is None

    @staticmethod
    def _rewrite_matrix(path, matrix):
        header = path.read_bytes().split(b"\n", 1)[0]
        with path.open("wb") as fh:
            fh.write(header + b"\n")
            np.save(fh, matrix, allow_pickle=False)

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "trailing-bytes", "no-matrix", "not-npy", "float32", "int64", "19-rows",
         "21-rows", "1-d", "3-d", "no-columns"],
    )
    def test_damaged_matrix_is_an_input_error(self, tmp_path, damage):
        path, index, examples = _saved_index(tmp_path)
        data = path.read_bytes()
        header_end = data.index(b"\n") + 1
        vectors = index.vectors
        edits = {
            "truncated": lambda: path.write_bytes(data[:-8]),
            "trailing-bytes": lambda: path.write_bytes(data + b"\0"),
            "no-matrix": lambda: path.write_bytes(data[:header_end]),
            "not-npy": lambda: path.write_bytes(data[:header_end] + b"[[1.0, 0.0]]\n"),
            "float32": lambda: self._rewrite_matrix(path, vectors.astype(np.float32)),
            "int64": lambda: self._rewrite_matrix(path, np.ones((20, 24), dtype=np.int64)),
            "19-rows": lambda: self._rewrite_matrix(path, vectors[:19]),
            "21-rows": lambda: self._rewrite_matrix(path, np.vstack([vectors, vectors[:1]])),
            "1-d": lambda: self._rewrite_matrix(path, vectors[0]),
            "3-d": lambda: self._rewrite_matrix(path, vectors[None]),
            "no-columns": lambda: self._rewrite_matrix(path, np.empty((20, 0))),
        }
        edits[damage]()
        with pytest.raises(DatasetError, match=re.escape(f"{path}: index matrix ")):
            load_index(path, examples, embedding=EMBEDDING)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "support.index"
        path.write_text("")
        with pytest.raises(DatasetError, match=re.escape(f"{path}: empty index file")):
            load_index(path, _examples(1), embedding=EMBEDDING)
