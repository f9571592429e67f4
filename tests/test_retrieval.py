"""Embedding providers, the flat support index, and exact top-k search."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventpipe.model import DatasetError, EventMention
from eventpipe.retrieval import (
    DEFAULT_DIMENSION,
    EmbeddingError,
    FewShotExample,
    HashedBagEmbedder,
    HttpEmbeddingProvider,
    SupportIndex,
    build_index,
    embed,
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


class TestHashedBagEmbedder:
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
        vec = embed("the war began", HashedBagEmbedder(dimension=32))
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-12

    def test_empty_text_embeds_to_zero_and_is_rejected(self):
        with pytest.raises(EmbeddingError):
            embed("   ", HashedBagEmbedder(dimension=32))

    def test_bad_dimension_rejected(self):
        with pytest.raises(EmbeddingError):
            HashedBagEmbedder(dimension=0)


class TestHttpEmbeddingProvider:
    def test_posts_texts_and_parses_vectors(self, http_server):
        http_server.default_response = (200, {"vectors": [[1.0, 0.0], [0.0, 1.0]]})
        provider = HttpEmbeddingProvider(http_server.url)
        vecs = provider.embed_batch(["a", "b"])
        assert len(vecs) == 2
        assert http_server.requests[0]["body"] == {"texts": ["a", "b"]}

    def test_batching_splits_requests(self, http_server):
        http_server.enqueue({"vectors": [[1.0, 0.0], [0.0, 1.0]]})
        http_server.enqueue({"vectors": [[1.0, 1.0]]})
        provider = HttpEmbeddingProvider(http_server.url, batch_size=2)
        vecs = provider.embed_batch(["a", "b", "c"])
        assert len(vecs) == 3
        assert [len(r["body"]["texts"]) for r in http_server.requests] == [2, 1]

    def test_wrong_vector_count_rejected(self, http_server):
        http_server.default_response = (200, {"vectors": [[1.0, 0.0]]})
        provider = HttpEmbeddingProvider(http_server.url)
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
        q = embed("text number 3", HashedBagEmbedder(dimension=24))
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
        with pytest.raises(EmbeddingError, match="ex-003"):
            load_index(path, examples[:3])

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
        with pytest.raises(EmbeddingError):
            load_index(path, _examples(1))
