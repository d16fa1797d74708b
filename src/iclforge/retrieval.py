"""In-context example selection: similar, diverse, topical, and random strategies.

All strategies arrange the selected shots in non-decreasing similarity to the
query, so the most similar shot sits right before the query in the prompt.

Ranking is exact. One pass over the embedding matrix gives every candidate an
approximate score; only the candidates whose approximation can still reach the
top are scored with the per-pair `similarity`, and those values alone decide
every rank and every tie.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Dataset, EmbeddingTable, Example, derive_rng
from .errors import DataError

STRATEGIES = ("similar", "diverse", "topical", "random")

KMEANS_MAX_ITER = 100

UNIT_ROUNDOFF = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074


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


class Pool:
    """Candidate examples with their ids, their embedding table and their rows in it.

    Building one checks every candidate has an embedding; a caller that
    retrieves from the same candidates many times builds it once. Retrieval,
    peer prefixes, shot ordering and profiling read every vector from the
    pool's `table`, the one its rows index. The pool clusters its rows once
    per (k, seed), however many threads retrieve from it.
    """

    __slots__ = ("examples", "ids", "rows", "table", "_labels", "_lock")

    def __init__(
        self,
        examples: tuple[Example, ...],
        ids: tuple[str, ...],
        rows: np.ndarray,
        table: EmbeddingTable,
    ):
        self.examples, self.ids, self.rows, self.table = examples, ids, rows, table
        self._labels: dict[tuple[int, int], np.ndarray] = {}
        self._lock = threading.Lock()

    @classmethod
    def of(cls, examples: Iterable[Example], table: EmbeddingTable) -> "Pool":
        """The Pool of `examples` over `table`."""
        examples = tuple(examples)
        ids = tuple(ex.id for ex in examples)
        table.require(ids)
        rows = np.fromiter(map(table.rows.__getitem__, ids), dtype=np.intp, count=len(ids))
        return cls(examples, ids, rows, table)

    @classmethod
    def shots(cls, dataset: Dataset, table: EmbeddingTable) -> "Pool":
        """The Pool of `dataset`'s shot-safe examples, the only ones a prompt may show."""
        return cls.of([ex for ex in dataset if ex.prompt_safe], table)

    def __len__(self) -> int:
        return len(self.ids)

    def others(self, example: Example) -> np.ndarray:
        """Positions, in pool order, of the candidates whose embedding row is not `example`'s.

        This is the one rule that keeps an example from being its own shot or
        peer: every copy of it in the pool goes. An example with no embedding
        has no copy here (rows are never negative).
        """
        return np.flatnonzero(self.rows != self.table.rows.get(example.id, -1))

    def labels(self, k: int, seed: int) -> np.ndarray:
        """The k-means labels of every candidate, computed by the first caller to ask."""
        with self._lock:
            if (k, seed) not in self._labels:
                self._labels[k, seed] = kmeans(self.table.matrix[self.rows], k, seed)
            return self._labels[k, seed]


def similarity(id_a: str, id_b: str, table: EmbeddingTable) -> float:
    """Dot product of the two examples' embedding vectors."""
    return float(np.dot(table.vector(id_a), table.vector(id_b)))


def _error_bound(table: EmbeddingTable, query_vector: np.ndarray) -> float:
    """A bound on |approximate score - similarity()| for every row of `table`.

    A d-term dot product summed in any order is within gamma_d * ||q|| * ||v||
    of the exact value, gamma_d = d*u / (1 - d*u) (Higham, "Accuracy and
    Stability of Numerical Algorithms", 3.1), and both the approximation and
    `similarity` are such sums. Two terms more than d absorb the rounding of the
    norms and of the threshold built on this bound; the last term covers
    products that underflow.
    """
    d = table.dim + 2
    gamma = d * UNIT_ROUNDOFF / (1.0 - d * UNIT_ROUNDOFF)
    query_norm = math.sqrt(float(np.einsum("j,j->", query_vector, query_vector)))
    return 2.0 * gamma * query_norm * table.max_norm + d * SMALLEST_SUBNORMAL


def _shortlist(approx: np.ndarray, positions: np.ndarray, n: int, bound: float) -> np.ndarray:
    """The `positions` whose approximate score can reach the exact top n among them.

    Each approximation is within `bound` of its exact score, so a member of the
    exact top n, ties included, has an approximation at least the n-th largest
    one minus 2 * bound.
    """
    scores = approx[positions]
    m = len(scores)
    if m <= n:
        return positions
    # two kth indices run the code np.median runs, so profiling, which calls both,
    # keeps no further numpy code resident (each new kernel costs 64 KiB of RSS or more)
    nth = np.partition(scores, [m - n - 1, m - n])[m - n]
    threshold = nth - 2.0 * bound
    if not math.isfinite(threshold):  # a score or the bound overflowed: keep them all
        return positions
    return positions[scores >= threshold]


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, one centre at a time.

    Each column is bit-identical to the broadcast form over (n, k, d), which
    subtracts, squares and sums the same d terms in the same order.
    """
    d2 = np.empty((len(points), len(centers)))
    for j, center in enumerate(centers):
        d2[:, j] = ((points - center) ** 2).sum(axis=1)
    return d2


def kmeans(vectors: np.ndarray, k: int, seed: int, max_iter: int = KMEANS_MAX_ITER) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding and Euclidean distance.

    Iterates until the assignment stabilizes or `max_iter` passes. An empty
    cluster is re-seeded with the point currently farthest from its centroid.
    Every centre lies within the points' hull, so no point-to-centre distance
    exceeds twice the largest distance to the first centre; points whose
    squared distances could overflow are refused.
    """
    points = np.asarray(vectors, dtype=np.float64)
    n = len(points)
    if k > n:
        raise DataError(f"cannot form {k} clusters from {n} points")
    rng = derive_rng(seed, "kmeans")
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    with np.errstate(over="ignore"):  # an overflow is refused just below
        d2 = _sq_distances(points, centers[:1])[:, 0]  # to the nearest centre so far
        if not math.isfinite(4.0 * float(d2.sum())):
            raise DataError(
                f"cannot cluster {n} vectors: their squared distances overflow the float range"
            )
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, _sq_distances(points, centers[j : j + 1])[:, 0])
    labels = _sq_distances(points, centers).argmin(axis=1)
    for _ in range(max_iter):
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        empty = [c for c in range(k) if not (labels == c).any()]
        if empty:
            dist_own = ((points - centers[labels]) ** 2).sum(axis=1)
            order = np.argsort(-dist_own, kind="stable")
            taken: set[int] = set()
            for c in empty:
                idx = next(int(i) for i in order if int(i) not in taken)
                taken.add(idx)
                centers[c] = points[idx]
        new_labels = _sq_distances(points, centers).argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def retrieve(query: Example, pool: Pool, config: RetrievalConfig) -> list[Example]:
    """Select `config.k` shots for `query` from `pool` and arrange them for prompting.

    The candidates are `Pool.others` of the query, scored against it in the
    pool's own table, which must also hold the query. A diverse retrieval takes
    the pool's own k-means labels (`Pool.labels`); when the query is left out
    it clusters the other candidates afresh on every call.
    """
    table = pool.table
    query_row = table.row(query.id)
    candidates = pool.others(query)
    if len(candidates) < config.k:
        raise DataError(f"pool of {len(candidates)} examples is smaller than k={config.k}")

    # each candidate, by its position in the pool, is scored at most once, on first use
    sims: dict[int, float] = {}

    def sim(i: int) -> float:
        if i not in sims:
            sims[i] = similarity(query.id, pool.ids[i], table)
        return sims[i]

    def rank(i: int) -> tuple[float, str]:
        """Most similar first; ties broken by smaller id."""
        return -sim(i), pool.ids[i]

    if config.strategy == "random":
        ordered = sorted(candidates.tolist(), key=pool.ids.__getitem__)
        rng = derive_rng(config.seed, "retrieval", query.id)
        picks = rng.choice(len(ordered), size=config.k, replace=False)
        chosen = [ordered[int(i)] for i in picks]
    else:
        query_vector = table.matrix[query_row]
        # einsum, not BLAS: a threaded matrix-vector product raises peak memory
        approx = np.einsum("ij,j->i", table.matrix, query_vector)[pool.rows]
        bound = _error_bound(table, query_vector)

        def top(positions: np.ndarray, n: int) -> list[int]:
            return sorted(_shortlist(approx, positions, n, bound).tolist(), key=rank)[:n]

        if config.strategy == "similar":
            chosen = top(candidates, config.k)
        elif config.strategy == "topical":
            if query.category is None:
                raise DataError(f"query {query.id!r} lacks a category for topical retrieval")
            same = [i for i in candidates.tolist() if pool.examples[i].category == query.category]
            chosen = top(np.array(same, dtype=np.intp), config.k)
        else:  # diverse: the top-ranked member of each non-empty cluster
            if len(candidates) == len(pool):
                labels = pool.labels(config.k, config.seed)
            else:  # no other query retrieves from these rows, so their labels are not kept
                labels = kmeans(table.matrix[pool.rows[candidates]], config.k, config.seed)
            members = (candidates[labels == c] for c in range(config.k))
            chosen = [top(m, 1)[0] for m in members if len(m)]
        if len(chosen) < config.k:
            # a sparse category or an empty cluster: backfill from the full ranking;
            # the best k overall hold the best k - len(chosen) not yet chosen
            taken = set(chosen)
            backfill = [i for i in top(candidates, config.k) if i not in taken]
            chosen += backfill[: config.k - len(chosen)]
    chosen.sort(key=lambda i: (sim(i), pool.ids[i]))
    return [pool.examples[i] for i in chosen]
