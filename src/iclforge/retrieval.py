"""In-context example selection: similar, diverse, topical, and random strategies.

All strategies arrange the selected shots in non-decreasing similarity to the
query, so the most similar shot sits right before the query in the prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, EmbeddingTable, Example, derive_rng
from .errors import DataError

STRATEGIES = ("similar", "diverse", "topical", "random")

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class RetrievalConfig:
    strategy: str = "similar"
    k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown retrieval strategy {self.strategy!r}")
        if self.k < 1:
            raise DataError("shot budget k must be at least 1")


def similarity(id_a: str, id_b: str, table: EmbeddingTable) -> float:
    """Dot product of the two examples' embedding vectors."""
    return float(np.dot(table.vector(id_a), table.vector(id_b)))


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def kmeans(vectors: np.ndarray, k: int, seed: int, max_iter: int = KMEANS_MAX_ITER) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding and Euclidean distance.

    Iterates until the assignment stabilizes or `max_iter` passes. An empty
    cluster is re-seeded with the point currently farthest from its centroid.
    """
    points = np.asarray(vectors, dtype=np.float64)
    n = len(points)
    if k > n:
        raise DataError(f"cannot form {k} clusters from {n} points")
    rng = derive_rng(seed, "kmeans")
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    for j in range(1, k):
        d2 = ((points[:, None, :] - centers[None, :j, :]) ** 2).sum(axis=2).min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
    labels = _assign(points, centers)
    for _ in range(max_iter):
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        empty = [c for c in range(k) if not (labels == c).any()]
        if empty:
            dist_own = ((points - centers[labels]) ** 2).sum(axis=1)
            taken: set[int] = set()
            for c in empty:
                order = np.argsort(-dist_own, kind="stable")
                idx = next(int(i) for i in order if int(i) not in taken)
                taken.add(idx)
                centers[c] = points[idx]
        new_labels = _assign(points, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def retrieve(
    query: Example,
    pool: Dataset | list[Example],
    table: EmbeddingTable,
    config: RetrievalConfig,
) -> list[Example]:
    """Select `config.k` shots for `query` and arrange them for prompting."""
    candidates = list(pool)
    if any(ex.id == query.id for ex in candidates):
        raise DataError(f"pool contains the query example {query.id!r}")
    if len(candidates) < config.k:
        raise DataError(
            f"pool of {len(candidates)} examples is smaller than k={config.k}"
        )
    table.require([query.id] + [ex.id for ex in candidates])

    # each candidate is scored against the query at most once, on first use
    sims: dict[str, float] = {}

    def sim(ex: Example) -> float:
        if ex.id not in sims:
            sims[ex.id] = similarity(query.id, ex.id, table)
        return sims[ex.id]

    def rank(ex: Example) -> tuple[float, str]:
        """Most similar first; ties broken by smaller id."""
        return -sim(ex), ex.id

    if config.strategy == "similar":
        chosen = sorted(candidates, key=rank)[: config.k]
    elif config.strategy == "random":
        ordered = sorted(candidates, key=lambda ex: ex.id)
        rng = derive_rng(config.seed, "retrieval", query.id)
        picks = rng.choice(len(ordered), size=config.k, replace=False)
        chosen = [ordered[int(i)] for i in picks]
    elif config.strategy == "topical":
        if query.category is None:
            raise DataError(f"query {query.id!r} lacks a category for topical retrieval")
        same = [ex for ex in candidates if ex.category == query.category]
        chosen = sorted(same, key=rank)[: config.k]
    else:  # diverse: the top-ranked member of each non-empty cluster
        matrix = np.stack([table.vector(ex.id) for ex in candidates])
        labels = kmeans(matrix, config.k, config.seed)
        chosen = [
            min((ex for ex, lab in zip(candidates, labels) if lab == cluster), key=rank)
            for cluster in set(labels.tolist())
        ]
    if len(chosen) < config.k:
        # a sparse category or an empty cluster: backfill from the full ranking
        chosen_ids = {ex.id for ex in chosen}
        backfill = [ex for ex in sorted(candidates, key=rank) if ex.id not in chosen_ids]
        chosen += backfill[: config.k - len(chosen)]
    return sorted(chosen, key=lambda ex: (sim(ex), ex.id))
