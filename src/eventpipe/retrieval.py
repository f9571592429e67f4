"""Support-set embedding and exact top-k cosine retrieval of few-shot examples.

The index is a flat scan: support sets at this scale (~19k items) search in
milliseconds, and an exact scan keeps retrieval deterministic, which the
golden-run tests rely on. Scores are per-item dot products over unit-norm
vectors; ties break by ascending example id.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .model import EventMention, normalize

__all__ = [
    "EmbeddingError",
    "EmbeddingProvider",
    "FewShotExample",
    "HashedBagEmbedder",
    "HttpEmbeddingProvider",
    "SupportIndex",
    "build_index",
    "embed",
    "load_index",
    "save_index",
    "search",
]

DEFAULT_DIMENSION = 384
_NORM_TOL = 1e-6


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
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise EmbeddingError(f"dimension must be positive, got {dimension}")
        self.dimension = dimension

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:8], "big") % self.dimension
        sign = 1.0 if digest[8] & 1 else -1.0
        return idx, sign

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            vec = np.zeros(self.dimension, dtype=np.float64)
            for token in normalize(text).split():
                idx, sign = self._bucket(token)
                vec[idx] += sign
            out.append(vec)
        return out


class HttpEmbeddingProvider:
    """Remote embedding endpoint: POST {"texts": [...]} -> {"vectors": [[...]]}."""

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        batch_size: int = 64,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_retries = max_retries
        self.batch_size = batch_size

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        from ._http import post_json

        out: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            chunk = list(texts[start : start + self.batch_size])
            payload = post_json(
                self.endpoint,
                {"texts": chunk},
                timeout=self.timeout,
                max_retries=self.max_retries,
                what="embedding endpoint",
            )
            vectors = payload.get("vectors") if isinstance(payload, dict) else None
            if not isinstance(vectors, list) or len(vectors) != len(chunk):
                raise EmbeddingError(
                    f"embedding endpoint returned {0 if not isinstance(vectors, list) else len(vectors)} "
                    f"vectors for {len(chunk)} texts"
                )
            out.extend(np.asarray(v, dtype=np.float64) for v in vectors)
        return out


def _unit(vec: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm <= _NORM_TOL:
        raise EmbeddingError(f"{what}: zero embedding vector")
    return vec / norm


def embed(text: str, embedding_provider: EmbeddingProvider) -> np.ndarray:
    """Embed one text to a unit-norm vector."""
    return _unit(embedding_provider.embed_batch([text])[0], f"text {text[:40]!r}")


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


def build_index(
    examples: Sequence[FewShotExample],
    embedding_provider: EmbeddingProvider,
    *,
    batch_size: int = 256,
) -> SupportIndex:
    """Embed every support example and assemble the flat index.

    Repeatable: the same examples and provider produce identical contents.
    """
    if not examples:
        raise EmbeddingError("cannot build an index over an empty support set")
    seen: set[str] = set()
    for ex in examples:
        if ex.example_id in seen:
            raise EmbeddingError(f"duplicate example_id {ex.example_id!r}")
        seen.add(ex.example_id)
    rows: list[np.ndarray] = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        vecs = embedding_provider.embed_batch([ex.text for ex in chunk])
        for ex, vec in zip(chunk, vecs):
            rows.append(_unit(np.asarray(vec, dtype=np.float64), f"example {ex.example_id!r}"))
    dims = {row.shape[0] for row in rows}
    if len(dims) != 1:
        raise EmbeddingError(f"embedding dimension mismatch across examples: {sorted(dims)}")
    matrix = np.vstack(rows)
    matrix.setflags(write=False)
    return SupportIndex(
        example_ids=tuple(ex.example_id for ex in examples),
        vectors=matrix,
        examples=tuple(examples),
    )


def search(
    index: SupportIndex,
    query_vector: np.ndarray,
    k: int,
    *,
    where: Callable[[FewShotExample], bool] | None = None,
) -> list[tuple[str, float]]:
    """Exact top-k cosine search: the k most similar items, best first.

    Returns min(k, candidates) (example_id, score) pairs sorted by descending
    score, ties broken by ascending example_id. The optional `where` predicate
    restricts candidates (used for the same-event-type retrieval filter).
    """
    if k < 1:
        raise EmbeddingError(f"k must be >= 1, got {k}")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dimension,):
        raise EmbeddingError(
            f"query dimension {q.shape} does not match index dimension {index.dimension}"
        )
    scored: list[tuple[str, float]] = []
    for i, example_id in enumerate(index.example_ids):
        if where is not None and not where(index.examples[i]):
            continue
        scored.append((example_id, float(np.dot(index.vectors[i], q))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def save_index(index: SupportIndex, path: str | Path) -> None:
    """Persist (id, vector) pairs with a dimension header; round-trips bit-exactly.

    Example texts and gold events are not stored; load_index re-attaches them
    from the support set by id.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dimension": index.dimension, "count": len(index)}) + "\n")
        for example_id, row in zip(index.example_ids, index.vectors):
            fh.write(json.dumps({"id": example_id, "vector": row.tolist()}) + "\n")


def load_index(path: str | Path, examples: Sequence[FewShotExample]) -> SupportIndex:
    """Load a persisted index, re-attaching examples by id."""
    path = Path(path)
    by_id = {ex.example_id: ex for ex in examples}
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise EmbeddingError(f"{path}: empty index file")
    header = json.loads(lines[0])
    dimension = int(header["dimension"])
    count = int(header["count"])
    ids: list[str] = []
    rows: list[np.ndarray] = []
    attached: list[FewShotExample] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rec = json.loads(line)
        vec = np.asarray(rec["vector"], dtype=np.float64)
        if vec.shape != (dimension,):
            raise EmbeddingError(f"{path}: vector for {rec['id']!r} has wrong dimension")
        example_id = str(rec["id"])
        if example_id not in by_id:
            raise EmbeddingError(f"{path}: no support example with id {example_id!r}")
        ids.append(example_id)
        rows.append(vec)
        attached.append(by_id[example_id])
    if len(ids) != count:
        raise EmbeddingError(f"{path}: header count {count} != {len(ids)} rows")
    matrix = np.vstack(rows)
    matrix.setflags(write=False)
    return SupportIndex(example_ids=tuple(ids), vectors=matrix, examples=tuple(attached))
