from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iclforge import retrieval
from iclforge.core import EmbeddingTable, Example
from iclforge.errors import DataError
from iclforge.retrieval import Pool, RetrievalConfig, _sq_distances, kmeans, retrieve, similarity

from oracles import (
    oracle_arrangement,
    oracle_best_two_partition,
    oracle_diverse,
    oracle_sq_distances,
    oracle_sse,
    oracle_top_k,
    oracle_topical,
)


def make_pool(vectors: dict[str, list[float]], categories: dict[str, str] | None = None):
    categories = categories or {}
    examples = tuple(
        Example(id=i, question=f"question {i}", answers=("a",), category=categories.get(i))
        for i in sorted(vectors)
    )
    table = EmbeddingTable.from_vectors(vectors)
    return examples, table


class TestSimilarity:
    def test_identical_unit_vectors(self):
        _, table = make_pool({"a": [1, 0], "b": [1, 0]})
        assert similarity("a", "b", table) == 1.0

    def test_orthogonal(self):
        _, table = make_pool({"a": [1, 0], "b": [0, 1]})
        assert similarity("a", "b", table) == 0.0

    def test_arithmetic(self):
        _, table = make_pool({"a": [1, 2], "b": [3, 4]})
        assert similarity("a", "b", table) == 11.0

    def test_missing_id(self):
        _, table = make_pool({"a": [1, 0]})
        with pytest.raises(DataError, match="missing embedding"):
            similarity("a", "zz", table)


class TestKmeans:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_per_centre_distances_equal_the_broadcast_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(1, 300)), int(rng.integers(1, 130)), int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-8, 8)
        points = rng.normal(size=(n, d)) * scale
        centers = rng.normal(size=(k, d)) * scale
        got = _sq_distances(points, centers)
        assert got.tobytes() == oracle_sq_distances(points, centers).tobytes()

    def test_k_equals_n(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        labels = kmeans(points, k=3, seed=0)
        assert len(set(labels.tolist())) == 3

    def test_k_equals_one(self):
        points = np.array([[0.0], [1.0], [2.0]])
        labels = kmeans(points, k=1, seed=0)
        assert set(labels.tolist()) == {0}

    def test_k_greater_than_n_errors(self):
        with pytest.raises(DataError):
            kmeans(np.zeros((2, 2)), k=3, seed=0)

    def test_two_tight_pairs_cocluster(self):
        points = [[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]]
        labels = kmeans(np.array(points), k=2, seed=0).tolist()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        _, best_sse = oracle_best_two_partition(points)
        assert oracle_sse(points, labels) == pytest.approx(best_sse)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_sse_never_worse_than_singleton_bound(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(12, 3))
        labels = kmeans(points, k=3, seed=seed)
        sse_k3 = oracle_sse(points.tolist(), labels.tolist())
        sse_k1 = oracle_sse(points.tolist(), [0] * len(points))
        assert sse_k3 <= sse_k1 + 1e-9

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(20, 4))
        first = kmeans(points, k=4, seed=11).tolist()
        second = kmeans(points, k=4, seed=11).tolist()
        assert first == second

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_sse_monotone_across_iterations(self, seed):
        # capping the iteration count exposes each intermediate assignment
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(15, 2))
        sses = [
            oracle_sse(points.tolist(), kmeans(points, k=3, seed=seed, max_iter=m).tolist())
            for m in range(1, 8)
        ]
        for earlier, later in zip(sses, sses[1:]):
            assert later <= earlier + 1e-9


class TestRetrieveSimilar:
    def test_top_k_ascending_arrangement(self):
        pool, table = make_pool(
            {
                "p1": [0.9, 0.0],
                "p2": [0.5, 0.0],
                "p3": [0.1, 0.0],
                "q": [1.0, 0.0],
            }
        )
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        result = retrieve(query, Pool.of(candidates, table), RetrievalConfig("similar", k=2))
        assert [ex.id for ex in result] == ["p2", "p1"]

    def test_pool_smaller_than_k_errors(self):
        pool, table = make_pool({"q": [1.0], "p": [0.5]})
        query = next(ex for ex in pool if ex.id == "q")
        with pytest.raises(DataError, match="smaller than k"):
            retrieve(query, Pool.of([pool[0]], table), RetrievalConfig("similar", k=2))
        # the query left out of a pool that holds it leaves one candidate
        with pytest.raises(DataError, match="pool of 1 examples is smaller than k=2"):
            retrieve(query, Pool.of(pool, table), RetrievalConfig("similar", k=2))

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=10, max_value=50),
        st.sampled_from(("similar", "topical", "diverse")),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_top_k(self, seed, k, pool_size, strategy, query_in_pool):
        # coordinates in {-1, 0, 1} over one to four dimensions give exact dot
        # products, many exact ties, and repeated points that leave k-means
        # clusters empty, so the backfill runs too; a pool that holds the query
        # must give the shots of the pool without it
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        vectors = {"query": rng.integers(-1, 2, size=dim).tolist()}
        categories = {"query": "c0"}
        for i in range(pool_size):
            vectors[f"p{i:02d}"] = rng.integers(-1, 2, size=dim).tolist()
            categories[f"p{i:02d}"] = f"c{int(rng.integers(3))}"
        pool, table = make_pool(vectors, categories)
        query = next(ex for ex in pool if ex.id == "query")
        candidates = [ex for ex in pool if ex.id != "query"]
        pool_ids = [ex.id for ex in candidates]
        config = RetrievalConfig(strategy, k=k, seed=seed)
        result = retrieve(query, Pool.of(pool if query_in_pool else candidates, table), config)
        if strategy == "similar":
            expected = oracle_top_k("query", pool_ids, vectors, k)
        elif strategy == "topical":
            expected = oracle_topical("query", pool_ids, categories, vectors, k)
        else:
            # the reference takes the library's k-means labels as given
            matrix = np.stack([table.vector(i) for i in pool_ids])
            labels = kmeans(matrix, k, seed).tolist()
            expected = oracle_diverse("query", pool_ids, labels, vectors, k)
        assert [ex.id for ex in result] == oracle_arrangement("query", expected, vectors)


def numpy_dot(u, v):
    """The dot product `similarity` computes, for the oracles."""
    return float(np.dot(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)))


def near_tied_vectors(rng: np.random.Generator, n: int, dim: int) -> list[list[float]]:
    """`n` vectors that tie or nearly tie: copies of three bases, copies with one
    component nudged by one to three ulps, integer-valued vectors and zeros."""
    bases = [rng.normal(size=dim) * 10.0 ** int(rng.integers(-3, 4)) for _ in range(3)]
    vectors = []
    for _ in range(n):
        kind = int(rng.integers(5))
        if kind == 0:
            vector = rng.integers(-2, 3, size=dim).astype(np.float64)
        elif kind == 1:
            vector = np.zeros(dim)
        else:
            vector = bases[int(rng.integers(3))].copy()
            if kind > 2:
                j = int(rng.integers(dim))
                toward = np.inf if kind == 3 else -np.inf
                for _ in range(int(rng.integers(1, 4))):
                    vector[j] = np.nextafter(vector[j], toward)
        vectors.append(vector.tolist())
    return vectors


class TestRetrieveNearTies:
    """The prefilter never changes a result: retrieval equals brute-force ranking
    by the per-pair similarity on pools built to tie and nearly tie."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(("similar", "topical", "diverse")),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_ties(self, seed, strategy):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        pool_size = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(pool_size, 8) + 1))
        drawn = near_tied_vectors(rng, pool_size + 1, dim)
        vectors = {"query": drawn[0]}
        categories = {"query": "c0"}
        for i, vector in enumerate(drawn[1:]):
            vectors[f"p{i:02d}"] = vector
            categories[f"p{i:02d}"] = f"c{int(rng.integers(3))}"
        pool, table = make_pool(vectors, categories)
        query = next(ex for ex in pool if ex.id == "query")
        candidates = [ex for ex in pool if ex.id != "query"]
        pool_ids = [ex.id for ex in candidates]
        config = RetrievalConfig(strategy, k=k, seed=seed)
        result = retrieve(query, Pool.of(candidates, table), config)
        if strategy == "similar":
            expected = oracle_top_k("query", pool_ids, vectors, k, numpy_dot)
        elif strategy == "topical":
            expected = oracle_topical("query", pool_ids, categories, vectors, k, numpy_dot)
        else:
            matrix = np.stack([table.vector(i) for i in pool_ids])
            labels = kmeans(matrix, k, seed).tolist()
            expected = oracle_diverse("query", pool_ids, labels, vectors, k, numpy_dot)
        want = oracle_arrangement("query", expected, vectors, numpy_dot)
        assert [ex.id for ex in result] == want

    def test_scaled_copies_straddle_the_bound(self):
        # one vector and copies one ulp larger or smaller in every component score
        # within the error bound of each other; only the per-pair values decide
        rng = np.random.default_rng(5)
        base = rng.normal(size=64)
        vectors = {"query": rng.normal(size=64).tolist()}
        for i in range(30):
            toward = (np.inf, -np.inf, 0.0)[i % 3]
            vector = base.copy()
            for _ in range(i // 3):
                vector = np.nextafter(vector, toward)
            vectors[f"p{i:02d}"] = vector.tolist()
        pool, table = make_pool(vectors)
        query = next(ex for ex in pool if ex.id == "query")
        candidates = [ex for ex in pool if ex.id != "query"]
        pool_ids = [ex.id for ex in candidates]
        for k in (1, 3, 7):
            result = retrieve(query, Pool.of(candidates, table), RetrievalConfig("similar", k=k))
            expected = oracle_top_k("query", pool_ids, vectors, k, numpy_dot)
            want = oracle_arrangement("query", expected, vectors, numpy_dot)
            assert [ex.id for ex in result] == want

    def test_prebuilt_pool_gives_the_same_shots(self):
        # a pool that holds the query gives the shots of the pool without it
        rng = np.random.default_rng(8)
        vectors = {f"p{i:02d}": v for i, v in enumerate(near_tied_vectors(rng, 30, 4))}
        pool, table = make_pool(vectors, {i: f"c{n % 3}" for n, i in enumerate(vectors)})
        built = Pool.of(pool, table)
        for query in pool[:5]:
            others = [ex for ex in pool if ex.id != query.id]
            for prebuilt_pool in (Pool.of(others, table), built):
                for strategy in retrieval.STRATEGIES:
                    config = RetrievalConfig(strategy, k=4, seed=3)
                    fresh = retrieve(query, Pool.of(others, table), config)
                    assert retrieve(query, prebuilt_pool, config) == fresh


class TestPoolLabels:
    def test_a_pool_clusters_once_and_never_for_a_query_it_holds(self, monkeypatch):
        rng = np.random.default_rng(9)
        vectors = {f"p{i:02d}": rng.normal(size=3).tolist() for i in range(20)}
        vectors.update({f"q{i}": rng.normal(size=3).tolist() for i in range(3)})
        examples, table = make_pool(vectors)
        members = [ex for ex in examples if ex.id.startswith("p")]
        outsiders = [ex for ex in examples if ex.id.startswith("q")]
        pool = Pool.of(members, table)
        calls = []
        kmeans = retrieval.kmeans

        def counting(vectors, k, seed, *rest):
            calls.append(vectors.copy())
            return kmeans(vectors, k, seed, *rest)

        monkeypatch.setattr(retrieval, "kmeans", counting)
        config = RetrievalConfig("diverse", k=3, seed=1)
        for query in members[:3]:
            retrieve(query, pool, config)
        # each query clusters the other 19 rows afresh and keeps nothing in the pool
        assert len(calls) == 3
        for query, rows in zip(members, calls):
            others = [ex.id for ex in members if ex.id != query.id]
            assert rows.tobytes() == np.stack([table.vector(i) for i in others]).tobytes()
        # so the first query from outside clusters the whole pool, and only it
        for query in outsiders:
            retrieve(query, pool, config)
        assert len(calls) == 4
        assert calls[3].tobytes() == np.stack([table.vector(ex.id) for ex in members]).tobytes()


class TestSimilarityCallBudget:
    """Each candidate is scored against the query at most once per call, and
    only the candidates the prefilter keeps are scored: here, k of them."""

    @pytest.mark.parametrize(
        "strategy, expected",
        [("similar", 5), ("topical", 5), ("diverse", 5), ("random", 5)],
    )
    def test_calls_per_retrieve(self, strategy, expected, monkeypatch):
        rng = np.random.default_rng(4)
        vectors = {f"p{i:02d}": rng.normal(size=3).tolist() for i in range(20)}
        vectors["q"] = rng.normal(size=3).tolist()
        # seven of the twenty candidates share the query's category
        categories = {i: ("one" if n < 7 else "two") for n, i in enumerate(sorted(vectors))}
        categories["q"] = "one"
        pool, table = make_pool(vectors, categories)
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        calls = []

        def counting(id_a, id_b, table):
            calls.append(id_b)
            return similarity(id_a, id_b, table)

        monkeypatch.setattr(retrieval, "similarity", counting)
        result = retrieve(query, Pool.of(candidates, table), RetrievalConfig(strategy, k=5, seed=1))
        assert len(result) == 5
        assert len(calls) == expected
        assert len(set(calls)) == expected


class TestRetrieveDiverse:
    def test_k1_equals_similar_k1(self):
        rng = np.random.default_rng(3)
        vectors = {f"p{i}": rng.normal(size=3).tolist() for i in range(12)}
        vectors["q"] = rng.normal(size=3).tolist()
        pool, table = make_pool(vectors)
        query = next(ex for ex in pool if ex.id == "q")
        candidates = Pool.of([ex for ex in pool if ex.id != "q"], table)
        diverse = retrieve(query, candidates, RetrievalConfig("diverse", k=1, seed=5))
        similar = retrieve(query, candidates, RetrievalConfig("similar", k=1))
        assert [ex.id for ex in diverse] == [ex.id for ex in similar]

    def test_two_separated_clusters_one_shot_each(self):
        vectors = {
            "a1": [1.0, 0.0],
            "a2": [1.1, 0.0],
            "b1": [0.0, 1.0],
            "b2": [0.0, 1.1],
            "q": [1.0, 1.0],
        }
        pool, table = make_pool(vectors)
        query = next(ex for ex in pool if ex.id == "q")
        candidates = Pool.of([ex for ex in pool if ex.id != "q"], table)
        result = retrieve(query, candidates, RetrievalConfig("diverse", k=2, seed=0))
        ids = {ex.id for ex in result}
        assert len(ids & {"a1", "a2"}) == 1
        assert len(ids & {"b1", "b2"}) == 1
        # each pick is the most query-similar member of its cluster
        assert ids == {"a2", "b2"}

    def test_returns_exactly_k_distinct(self):
        rng = np.random.default_rng(9)
        vectors = {f"p{i}": rng.normal(size=2).tolist() for i in range(9)}
        vectors["q"] = [0.0, 0.0]
        pool, table = make_pool(vectors)
        query = next(ex for ex in pool if ex.id == "q")
        candidates = Pool.of([ex for ex in pool if ex.id != "q"], table)
        result = retrieve(query, candidates, RetrievalConfig("diverse", k=4, seed=1))
        assert len({ex.id for ex in result}) == 4


class TestLeaveOneOut:
    """`Pool.others` leaves an example out by its embedding row, so every copy of
    it in a pool goes; `retrieve` takes its candidates from it."""

    @staticmethod
    def held_twice():
        # unit vectors, so t0 is its own most similar candidate
        vectors = {f"t{i}": [np.cos(i / 2), np.sin(i / 2)] for i in range(4)}
        examples, table = make_pool(vectors, dict.fromkeys(vectors, "c"))
        t0, *rest = examples
        return t0, [t0, t0, *rest], rest, table

    def test_others_are_every_candidate_but_the_copies(self):
        t0, held, rest, table = self.held_twice()
        pool = Pool.of(held, table)
        assert pool.others(t0).tolist() == [2, 3, 4]
        assert pool.others(rest[0]).tolist() == [0, 1, 3, 4]
        # an example with no embedding has no copy in any pool
        outsider = Example(id="x", question="q", answers=("a",))
        assert pool.others(outsider).tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("strategy", retrieval.STRATEGIES)
    def test_a_query_held_twice_is_never_its_own_shot(self, strategy):
        t0, held, rest, table = self.held_twice()
        config = RetrievalConfig(strategy, k=3, seed=0)
        result = retrieve(t0, Pool.of(held, table), config)
        assert t0 not in result
        assert result == retrieve(t0, Pool.of(rest, table), config)

    def test_a_pool_of_only_the_query_is_empty(self):
        t0, _, _, table = self.held_twice()
        for pool in ([t0], [t0, t0]):
            with pytest.raises(DataError, match="pool of 0 examples is smaller than k=1"):
                retrieve(t0, Pool.of(pool, table), RetrievalConfig("similar", k=1))

    def test_a_query_without_embedding_fails_before_the_pool_size(self):
        _, _, _, table = self.held_twice()
        outsider = Example(id="x", question="q", answers=("a",))
        with pytest.raises(DataError, match="missing embedding for id x"):
            retrieve(outsider, Pool.of([], table), RetrievalConfig("similar", k=1))


class TestRetrieveTopical:
    def make_categorized(self):
        vectors = {
            "p1": [0.9, 0.0],
            "p2": [0.8, 0.0],
            "p3": [0.7, 0.0],
            "p4": [0.99, 0.0],
            "q": [1.0, 0.0],
        }
        categories = {"p1": "one", "p2": "one", "p3": "two", "p4": "two", "q": "one"}
        return make_pool(vectors, categories)

    def test_prefers_same_category(self):
        pool, table = self.make_categorized()
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        result = retrieve(query, Pool.of(candidates, table), RetrievalConfig("topical", k=2))
        assert {ex.id for ex in result} == {"p1", "p2"}

    def test_backfills_sparse_category(self):
        pool, table = self.make_categorized()
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        result = retrieve(query, Pool.of(candidates, table), RetrievalConfig("topical", k=3))
        ids = {ex.id for ex in result}
        assert {"p1", "p2"} <= ids
        assert "p4" in ids  # most similar outside the category

    def test_query_without_category_errors(self):
        pool, table = make_pool({"p1": [1.0], "p2": [0.5], "q": [0.9]})
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        with pytest.raises(DataError, match="category"):
            retrieve(query, Pool.of(candidates, table), RetrievalConfig("topical", k=1))


class TestRetrieveRandom:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        vectors = {f"p{i}": rng.normal(size=2).tolist() for i in range(10)}
        vectors["q"] = [1.0, 0.0]
        pool, table = make_pool(vectors)
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        first = retrieve(query, Pool.of(candidates, table), RetrievalConfig("random", k=3, seed=5))
        second = retrieve(query, Pool.of(candidates, table), RetrievalConfig("random", k=3, seed=5))
        assert [e.id for e in first] == [e.id for e in second]
        assert len({e.id for e in first}) == 3
        sims = [similarity("q", e.id, table) for e in first]
        assert sims == sorted(sims)

    def test_seed_changes_draws_somewhere(self):
        rng = np.random.default_rng(0)
        vectors = {f"p{i}": rng.normal(size=2).tolist() for i in range(12)}
        vectors["q"] = [1.0, 0.0]
        pool, table = make_pool(vectors)
        query = next(ex for ex in pool if ex.id == "q")
        candidates = [ex for ex in pool if ex.id != "q"]
        draws = {
            tuple(
                sorted(
                    e.id
                    for e in retrieve(
                        query, Pool.of(candidates, table), RetrievalConfig("random", k=3, seed=s)
                    )
                )
            )
            for s in range(8)
        }
        assert len(draws) > 1


def test_all_strategies_never_return_query_and_respect_arrangement():
    rng = np.random.default_rng(21)
    vectors = {f"p{i}": rng.normal(size=3).tolist() for i in range(15)}
    vectors["q"] = rng.normal(size=3).tolist()
    categories = {i: ("x" if n % 2 else "y") for n, i in enumerate(sorted(vectors))}
    pool, table = make_pool(vectors, categories)
    query = next(ex for ex in pool if ex.id == "q")
    candidates = [ex for ex in pool if ex.id != "q"]
    for strategy in ("similar", "diverse", "topical", "random"):
        result = retrieve(query, Pool.of(candidates, table), RetrievalConfig(strategy, k=5, seed=2))
        ids = [ex.id for ex in result]
        assert len(ids) == 5
        assert len(set(ids)) == 5
        assert "q" not in ids
        sims = [similarity("q", ex.id, table) for ex in result]
        assert sims == sorted(sims)
