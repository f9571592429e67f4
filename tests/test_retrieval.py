"""Embedding providers, the flat support index, and exact top-k search."""
from __future__ import annotations

import hashlib
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventpipe import retrieval
from eventpipe.config import ProviderConfig, build_embedding_provider
from eventpipe.model import DatasetError, EventMention, normalize
from eventpipe.retrieval import (
    DEFAULT_DIMENSION,
    EmbeddingError,
    FewShotExample,
    HashedBagEmbedder,
    SupportIndex,
    build_index,
    embed_texts,
    load_index,
    save_index,
    search,
)


def _examples(n, prefix="ex"):
    return [FewShotExample(example_id=f"{prefix}-{i:03d}", text=f"text number {i}") for i in range(n)]


def _index_from_vectors(vectors, ids=None):
    """Assemble an index directly from unit row vectors, bypassing embedding."""
    matrix = np.asarray(vectors, dtype=np.float64)
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    matrix.setflags(write=False)
    n = matrix.shape[0]
    ids = ids or [f"v-{i:04d}" for i in range(n)]
    examples = tuple(FewShotExample(example_id=i, text=i) for i in ids)
    return SupportIndex(example_ids=tuple(ids), vectors=matrix, examples=examples)


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
    """(index, query, k, wanted types or None) with rows that stress the candidate cut.

    Rows may repeat exactly, sit one ulp apart, be non-unit (zero, tiny enough
    for subnormal products, or large enough to overflow the norm bound), and
    ids are shuffled against row order so ties must break by id.
    """
    dimension = draw(st.integers(1, 512))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(n, dimension))
    if draw(st.booleans()):
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if draw(st.booleans()):
        query = vectors[draw(st.integers(0, n - 1))].copy()
    else:
        query = rng.normal(size=dimension)
    scales = st.sampled_from([0.0, 1e-300, 1e-3, 7.5, 1e200])
    for row, scale in draw(st.dictionaries(st.integers(0, n - 1), scales, max_size=3)).items():
        vectors[row] *= scale
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        vectors[dst] = vectors[src]
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        vectors[dst] = np.nextafter(vectors[src], draw(st.sampled_from([np.inf, -np.inf])))
    vectors.setflags(write=False)
    ids = [f"v-{i:04d}" for i in rng.permutation(n)]
    examples = tuple(
        FewShotExample(
            example_id=example_id,
            text=example_id,
            gold_events=tuple(
                EventMention(trigger="t", event_type=t, arguments=())
                for t in draw(st.sets(st.sampled_from(_TYPES)))
            ),
        )
        for example_id in ids
    )
    index = SupportIndex(example_ids=tuple(ids), vectors=vectors, examples=examples)
    wanted = draw(st.none() | st.sets(st.sampled_from(_TYPES + ("E",))))
    return index, query, draw(st.integers(1, n + 3)), wanted


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
    """build_index's original assembly: a list of _unit rows, then np.vstack."""
    if not examples:
        raise EmbeddingError("cannot build an index over an empty support set")
    seen = set()
    for ex in examples:
        if ex.example_id in seen:
            raise EmbeddingError(f"duplicate example_id {ex.example_id!r}")
        seen.add(ex.example_id)
    rows = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        vecs = embedding_provider.embed_batch([ex.text for ex in chunk])
        for ex, vec in zip(chunk, vecs):
            rows.append(
                retrieval._unit(np.asarray(vec, dtype=np.float64), f"example {ex.example_id!r}")
            )
    dims = {row.shape[0] for row in rows}
    if len(dims) != 1:
        raise EmbeddingError(f"embedding dimension mismatch across examples: {sorted(dims)}")
    return np.vstack(rows)


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
    """An embedding provider that looks each text up in a table."""

    def __init__(self, table, default=(1.0, 0.0, 0.0)):
        self.table = table
        self.default = default

    def embed_batch(self, texts):
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
        assert index.example_ids == tuple(ex.example_id for ex in examples)
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
        examples = [
            FewShotExample(example_id="dup", text="one"),
            FewShotExample(example_id="dup", text="two"),
        ]
        with pytest.raises(EmbeddingError, match="dup"):
            build_index(examples, HashedBagEmbedder(dimension=8))

    def test_blank_example_text_rejected(self):
        examples = [FewShotExample(example_id="a", text="   ")]
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
        examples = [FewShotExample(f"ex-{k:04d}", rng.choice(pool)) for k in range(n)]
        got = _outcome(lambda: build_index(examples, HashedBagEmbedder(dimension)).vectors)
        want = _outcome(lambda: _unit_and_vstack_index(examples, HashedBagEmbedder(dimension)))
        assert _same_outcome(got, want)

    @pytest.mark.parametrize(
        "texts,table",
        [
            ([], {}),
            (["a", "b", "a"], {}),
            (["t"] * 300 + ["blank"] + ["t"] * 10, {"blank": (0.0, 0.0, 0.0)}),
            (["t"] * 300 + ["short"], {"short": (1.0, 2.0)}),
            (["short"] + ["t"] * 300 + ["blank"], {"short": (1.0, 2.0), "blank": (0.0, 0.0, 0.0)}),
            (["long", "t", "short"], {"short": (1.0, 2.0), "long": (1.0,) * 5}),
        ],
        ids=[
            "empty", "duplicate-id", "zero-vector-in-second-chunk", "dimension-mismatch",
            "zero-vector-after-a-mismatch", "three-dimensions",
        ],
    )
    def test_error_paths_match_the_reference(self, texts, table):
        ids = [f"ex-{k:04d}" if t != "a" else "dup" for k, t in enumerate(texts)]
        examples = [FewShotExample(i, t) for i, t in zip(ids, texts)]
        provider = _VectorsByText(table)
        got = _outcome(lambda: build_index(examples, provider).vectors)
        want = _outcome(lambda: _unit_and_vstack_index(examples, provider))
        assert isinstance(want, str) and got == want

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_remote_index_is_bit_identical_at_any_max_in_flight(self, http_server, batch_size):
        local = HashedBagEmbedder(dimension=64)
        http_server.responder = lambda body: (
            200, {"vectors": [vec.tolist() for vec in local.embed_batch(body["texts"])]}
        )
        examples = [
            FewShotExample(f"ex-{i:03d}", f"text {i % 37} row {i}") for i in range(300)
        ]
        want = build_index(examples, HashedBagEmbedder(dimension=64)).vectors
        for max_in_flight in (1, 4):
            provider = _remote(
                http_server.url, batch_size=batch_size, max_in_flight=max_in_flight
            )
            assert build_index(examples, provider).vectors.tobytes() == want.tobytes()
        # build_index embeds 256 texts at a time: chunks of 256 and 44 here.
        per_build = -(-256 // batch_size) + -(-44 // batch_size)
        assert len(http_server.requests) == 2 * per_build

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
            got = search(index, q, 10)
            want = brute_force_top_k(index, q, 10)
            assert got == want

    def test_ties_break_by_ascending_id(self):
        # Two identical rows with different ids: both score identically.
        index = _index_from_vectors([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ids=["b", "a", "c"])
        hits = search(index, np.array([1.0, 0.0]), 2)
        assert [h[0] for h in hits] == ["a", "b"]

    def test_k_larger_than_index_returns_all(self):
        index = _index_from_vectors(np.eye(4))
        assert len(search(index, np.array([1.0, 0, 0, 0]), 99)) == 4

    def test_scores_descend(self):
        rng = np.random.default_rng(3)
        index = _index_from_vectors(rng.normal(size=(50, 8)))
        q = rng.normal(size=8)
        q /= np.linalg.norm(q)
        hits = search(index, q, 50)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_where_filter_restricts_candidates(self):
        index = _index_from_vectors(np.eye(3), ids=["a", "b", "c"])
        hits = search(index, np.array([1.0, 0, 0]), 3, mask=np.array([False, True, True]))
        assert [h[0] for h in hits] == ["b", "c"]

    def test_where_filter_matches_brute_force(self):
        rng = np.random.default_rng(11)
        index = _index_from_vectors(rng.normal(size=(60, 8)))
        keep = lambda ex: ex.example_id.endswith(("0", "2", "4", "6", "8"))
        q = rng.normal(size=8)
        q /= np.linalg.norm(q)
        mask = np.array([keep(ex) for ex in index.examples])
        assert search(index, q, 5, mask=mask) == brute_force_top_k(index, q, 5, where=keep)

    @pytest.mark.parametrize("chunk", range(1, 8))
    def test_masked_scan_in_small_chunks_matches_brute_force(self, monkeypatch, chunk):
        monkeypatch.setattr(retrieval, "_SCAN_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        vectors = rng.normal(size=(60, 12))
        vectors[30:40] = vectors[20:30]  # exact ties, broken by id
        index = _index_from_vectors(vectors)
        masks = [
            np.ones(60, dtype=bool),
            rng.random(60) < 0.1,
            np.arange(60) % 7 == 3,
            np.arange(60) == 59,
            np.zeros(60, dtype=bool),
        ]
        for mask in masks:
            keep = lambda ex, mask=mask: mask[index.row_of[ex.example_id]]
            for q in (rng.normal(size=12), index.vectors[25]):
                for k in (1, 3, 10, 60):
                    assert search(index, q, k, mask=mask) == brute_force_top_k(index, q, k, where=keep)

    def test_mask_of_wrong_shape_rejected(self):
        index = _index_from_vectors(np.eye(3))
        with pytest.raises(EmbeddingError):
            search(index, np.array([1.0, 0, 0]), 2, mask=np.ones(2, dtype=bool))

    def test_non_finite_rows_fall_back_to_the_exact_scan(self):
        vectors = np.array([[np.inf, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]])
        vectors.setflags(write=False)
        ids = ("a", "b", "c", "d")
        examples = tuple(FewShotExample(example_id=i, text=i) for i in ids)
        index = SupportIndex(example_ids=ids, vectors=vectors, examples=examples)
        q = np.array([1.0, 0.0])
        finite = np.array([False, True, True, False])
        assert search(index, q, 1, mask=finite) == [("b", 1.0)]
        assert search(index, q, 1, mask=~np.array([False, False, False, True])) == [("a", np.inf)]

    def test_rows_whose_squares_underflow_keep_the_top_row(self):
        # Squares of 1e-300 entries underflow to 0, yet the dot products with
        # a unit-scale query round at the 1e-316 level: the candidate cut must
        # not treat these rows as exactly scored.
        ids = ("d", "c", "b", "a")
        examples = tuple(FewShotExample(example_id=i, text=i) for i in ids)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            row = rng.normal(size=64) * 1e-300
            neighbours = [np.nextafter(row, np.inf), np.nextafter(row, -np.inf)]
            vectors = np.array([row, *neighbours, np.zeros(64)])
            vectors.setflags(write=False)
            index = SupportIndex(example_ids=ids, vectors=vectors, examples=examples)
            q = rng.normal(size=64)
            assert search(index, q, 1) == brute_force_top_k(index, q, 1)
            assert search(index, row, 1) == brute_force_top_k(index, row, 1)

    @settings(max_examples=300, deadline=None)
    @given(case=_search_cases())
    def test_exact_against_brute_force_on_adversarial_rows(self, case):
        index, query, k, wanted = case
        if wanted is None:
            assert search(index, query, k) == brute_force_top_k(index, query, k)
            return
        keep = lambda ex: any(ev.event_type in wanted for ev in ex.gold_events)
        got = search(index, query, k, mask=index.type_mask(wanted))
        want = brute_force_top_k(index, query, k, where=keep)
        assert got == want
        if not any(keep(ex) for ex in index.examples):
            assert got == []

    def test_dimension_mismatch_rejected(self):
        index = _index_from_vectors(np.eye(4))
        with pytest.raises(EmbeddingError):
            search(index, np.zeros(5), 3)

    def test_k_zero_rejected(self):
        index = _index_from_vectors(np.eye(2))
        with pytest.raises(EmbeddingError):
            search(index, np.array([1.0, 0.0]), 0)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        examples = _examples(20)
        index = build_index(examples, HashedBagEmbedder(dimension=24))
        path = tmp_path / "index.jsonl"
        save_index(index, path)
        loaded = load_index(path, examples)
        assert loaded.example_ids == index.example_ids
        assert np.array_equal(loaded.vectors, index.vectors)  # not just allclose
        # Search results must match exactly too.
        (q,) = embed_texts(["text number 3"], HashedBagEmbedder(dimension=24))
        assert search(index, q, 5) == search(loaded, q, 5)

    def test_loaded_examples_are_reattached_by_id(self, tmp_path):
        examples = _examples(4)
        index = build_index(examples, HashedBagEmbedder(dimension=8))
        path = tmp_path / "index.jsonl"
        save_index(index, path)
        loaded = load_index(path, examples)
        by_id = dict(zip(loaded.example_ids, loaded.examples))
        assert by_id["ex-002"].text == "text number 2"

    def test_missing_example_for_stored_id_rejected(self, tmp_path):
        examples = _examples(4)
        index = build_index(examples, HashedBagEmbedder(dimension=8))
        path = tmp_path / "index.jsonl"
        save_index(index, path)
        with pytest.raises(DatasetError, match="ex-003"):
            load_index(path, examples[:3])

    @pytest.mark.parametrize(
        "rows,message",
        [
            ('{"id": "ex-000", "vector": [1.0, 0.0]}', "wrong dimension"),
            ('{"id": "ex-000", "vector": [1.0, 0.0, 0.0]}', "header count 2 != 1 rows"),
        ],
        ids=["wrong-dimension", "count-mismatch"],
    )
    def test_rows_that_disagree_with_the_header_are_an_input_error(self, tmp_path, rows, message):
        path = tmp_path / "index.jsonl"
        path.write_text('{"count": 2, "dimension": 3}\n' + rows + "\n")
        with pytest.raises(DatasetError, match=re.escape(f"{path}: ") + ".*" + message):
            load_index(path, _examples(1))

    @pytest.mark.parametrize(
        "header",
        [
            '{"dim": 3}',
            '{"dimension": 3}',
            '{"count": 1}',
            '{"count": "many", "dimension": 3}',
            "5",
            '"dimension"',
        ],
    )
    def test_malformed_header_is_an_input_error(self, tmp_path, header):
        path = tmp_path / "index.jsonl"
        path.write_text(header + '\n{"id": "ex-000", "vector": [1.0, 0.0, 0.0]}\n')
        with pytest.raises(DatasetError, match=re.escape(f"{path}: header at line 1")):
            load_index(path, _examples(1))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "index.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_index(path, _examples(1))
