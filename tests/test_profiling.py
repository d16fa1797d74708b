from __future__ import annotations

import sys

import numpy as np
import pytest

from iclforge.core import Dataset, EmbeddingTable, Example
from iclforge.errors import DataError
from iclforge.lm import CachedModel, MockModel
from iclforge.profiling import (
    ExampleSet,
    KnowledgeProfile,
    build_sets,
    load_profiles,
    median_similarity_filter,
    profile_dataset,
    profile_example,
    save_profiles,
)
from iclforge.retrieval import Pool

from rigs import JUNK, CountingModel, UnlikelyModel, build_knowledge_rig


def profile(example_id: str, f1: float, avg_sim: float = 0.5) -> KnowledgeProfile:
    return KnowledgeProfile(
        example_id=example_id,
        f1_em=f1,
        answer_perplexities=(2.0,),
        avg_similarity=avg_sim,
        model_fingerprint="mock:test",
    )


@pytest.fixture(scope="module")
def rig():
    return build_knowledge_rig(n_known=3, n_half=3, n_unknown=3)


class TestProfileExample:
    def test_known_scores_one(self, rig):
        dataset, table, model = rig
        example = dataset.examples[0]
        pool = [ex for ex in dataset if ex.id != example.id]
        result = profile_example(example, Pool.of(pool, table), model)
        assert result.f1_em == 1.0
        assert result.model_fingerprint == model.fingerprint
        assert len(result.answer_perplexities) == len(example.answers)
        assert all(pp > 0 for pp in result.answer_perplexities)

    def test_half_scores_two_thirds_style(self, rig):
        dataset, table, model = rig
        example = dataset.examples[3]  # first "half" example
        pool = [ex for ex in dataset if ex.id != example.id]
        assert profile_example(example, Pool.of(pool, table), model).f1_em == 0.5

    def test_unknown_scores_zero(self, rig):
        dataset, table, model = rig
        example = dataset.examples[6]
        pool = [ex for ex in dataset if ex.id != example.id]
        assert profile_example(example, Pool.of(pool, table), model).f1_em == 0.0

    def test_half_of_four_answer_gold(self):
        # two of four gold answers predicted: precision 1, recall 0.5
        from iclforge.core import EmbeddingTable, Example
        from iclforge.lm import MockModel, MockRule

        target = Example(
            id="t", question="the four marks?", answers=("k1", "k2", "k3", "k4")
        )
        others = [
            Example(id=f"o{i}", question=f"filler {i}?", answers=("f",))
            for i in range(5)
        ]
        vectors = {
            ex.id: np.asarray([float(i), 1.0])
            for i, ex in enumerate([target] + others)
        }
        table = EmbeddingTable.from_vectors(vectors)
        rules = [
            MockRule("the four marks?\nAnswers:", "k1", 9.0),
            MockRule("the four marks?\nAnswers: k1", "|", 9.0),
            MockRule("the four marks?\nAnswers: k1 |", "k2", 9.0),
            MockRule("the four marks?\nAnswers: k1 | k2", "\n", 9.0),
        ]
        model = MockModel(["k1", "k2", "k3", "k4", "f", "|", "\n"], tuple(rules))
        result = profile_example(target, Pool.of(others, table), model)
        assert result.f1_em == pytest.approx(2 * (1.0 * 0.5) / 1.5)

    def test_pool_holding_the_example_gives_the_same_profile(self, rig):
        # however many copies of the example the pool holds, none is its own peer:
        # the backend gets the same requests, so the prefix is the same too
        dataset, table, model = rig
        for example in dataset.examples[::3]:  # known, half, unknown
            others = [ex for ex in dataset if ex.id != example.id]
            alone = CountingModel(model)
            expected = profile_example(example, Pool.of(others, table), alone)
            for pool in (list(dataset.examples), [example, *dataset.examples]):
                held = CountingModel(model)
                assert profile_example(example, Pool.of(pool, table), held) == expected
                assert held.requests == alone.requests

    def test_empty_pool_rejected(self, rig):
        dataset, table, model = rig
        example = dataset.examples[0]
        # a pool holding only the example is empty once the example is left out
        for pool in ([], [example], [example, example]):
            with pytest.raises(DataError, match="empty candidate pool"):
                profile_example(example, Pool.of(pool, table), model)

    def test_of_two_faults_the_pool_and_then_k_are_reported(self, rig):
        # an example with no embedding fails only once a peer is retrieved
        dataset, table, model = rig
        outsider = Example(id="x", question="outside?", answers=("a",))
        with pytest.raises(DataError, match="empty candidate pool"):
            profile_example(outsider, Pool.of([], table), model, k=0)
        with pytest.raises(DataError, match="shot budget k must be at least 1"):
            profile_example(outsider, Pool.of(dataset.examples, table), model, k=0)
        with pytest.raises(DataError, match="missing embedding for id x"):
            profile_example(outsider, Pool.of(dataset.examples, table), model, k=1)

    def test_repeated_gold_answer_scored_once(self):
        target = Example(id="t", question="which letters?", answers=("alpha", "beta", "alpha"))
        peer = Example(id="o", question="filler?", answers=("f",))
        table = EmbeddingTable.from_vectors({"t": [1.0, 0.0], "o": [0.0, 1.0]})
        model = CountingModel(MockModel(["alpha", "beta", "f", "|", "\n"]))
        result = profile_example(target, Pool.of([peer], table), model)
        assert model.counts["score"] == 2
        first, _, third = result.answer_perplexities
        assert first == third

    def test_k_below_one_rejected(self, rig):
        dataset, table, model = rig
        example = dataset.examples[0]
        pool = [ex for ex in dataset if ex.id != example.id]
        with pytest.raises(DataError):
            profile_example(example, Pool.of(pool, table), model, k=0)

    def test_avg_similarity_is_mean_over_pool(self, rig):
        dataset, table, model = rig
        example = dataset.examples[0]
        pool = [ex for ex in dataset if ex.id != example.id]
        result = profile_example(example, Pool.of(pool, table), model)
        expected = float(
            np.mean(
                [float(np.dot(table.vector(example.id), table.vector(o.id))) for o in pool]
            )
        )
        assert result.avg_similarity == pytest.approx(expected)


    def test_a_saturated_perplexity_is_stored_and_read_back(self, rig, tmp_path):
        dataset, table, model = rig
        example = dataset.examples[0]
        unlikely = UnlikelyModel(model, {" " + a for a in example.answers})
        result = profile_example(example, Pool.of(dataset.examples, table), unlikely)
        assert result.answer_perplexities == (sys.float_info.max,) * len(example.answers)
        save_profiles([result], tmp_path / "p.jsonl")
        assert load_profiles(tmp_path / "p.jsonl") == [result]


class TestProfileDataset:
    def test_idempotent_with_store(self, tmp_path):
        dataset, table, model = build_knowledge_rig(2, 2, 2)
        store = tmp_path / "profiles.jsonl"
        first = profile_dataset(dataset, table, model, store_path=store)
        second = profile_dataset(dataset, table, model, store_path=store)
        assert first == second
        assert load_profiles(store) == first

    def test_fingerprint_separates_models(self, tmp_path):
        dataset, table, model = build_knowledge_rig(2, 2, 2)
        store = tmp_path / "profiles.jsonl"
        profile_dataset(dataset, table, model, store_path=store)
        # a different model must not reuse the stored profiles
        from iclforge.lm import MockModel

        other = MockModel(["only", "\n", "|"])
        fresh = profile_dataset(dataset, table, other, store_path=store)
        assert all(p.model_fingerprint == other.fingerprint for p in fresh)

    @pytest.mark.parametrize("change", ["edited-answer", "added-example"])
    def test_changed_pool_recomputes_every_profile(self, tmp_path, change):
        # a profile depends on the whole pool, so no stored one may survive a change
        dataset, table, model = build_knowledge_rig(2, 2, 2)
        store = tmp_path / "profiles.jsonl"
        profile_dataset(dataset, table, model, store_path=store)
        examples = list(dataset.examples)
        vectors = {key: table.vector(key) for key in table.rows}
        if change == "edited-answer":
            edited = examples[0]
            examples[0] = Example(edited.id, edited.question, edited.answers + (JUNK,))
        else:
            examples.append(Example(id="p999", question="an extra question?", answers=(JUNK,)))
            vectors["p999"] = np.asarray([0.0, 0.0, 1.0])
        changed = Dataset(split="train", examples=tuple(examples))
        changed_table = EmbeddingTable.from_vectors(vectors)
        rerun = profile_dataset(changed, changed_table, model, store_path=store)
        fresh_store = tmp_path / "fresh.jsonl"
        fresh = profile_dataset(changed, changed_table, model, store_path=fresh_store)
        assert rerun == fresh
        assert store.read_bytes() == fresh_store.read_bytes()

    def test_cached_rerun_sends_no_backend_calls(self, tmp_path):
        # reruns are served by the call cache, not by the profile store
        dataset, table, model = build_knowledge_rig(2, 2, 2)
        counting = CountingModel(model)
        store = tmp_path / "profiles.jsonl"
        cold = profile_dataset(
            dataset, table, CachedModel(counting, tmp_path / "cache"), store_path=store
        )
        assert counting.counts["generate"] > 0 and counting.counts["score"] > 0
        counting.counts.clear()
        warm = profile_dataset(
            dataset, table, CachedModel(counting, tmp_path / "cache"), store_path=store
        )
        assert sum(counting.counts.values()) == 0
        assert warm == cold

    def test_round_trip(self, tmp_path):
        profiles = [profile("a", 0.5), profile("b", 1.0, avg_sim=0.25)]
        path = tmp_path / "p.jsonl"
        save_profiles(profiles, path)
        assert load_profiles(path) == profiles

    def test_failed_save_keeps_the_old_store(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_profiles([profile("a", 0.5)], path)
        before = path.read_bytes()
        unserializable = KnowledgeProfile("b", 1.0, (object(),), 0.25, "mock:test")
        with pytest.raises(TypeError):
            save_profiles([profile("a", 0.5), profile("c", 0.0), unserializable], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestMedianSimilarityFilter:
    def test_takes_nearest_on_each_side(self):
        profiles = [profile(f"p{i}", 0.0, avg_sim=s) for i, s in enumerate([0.1, 0.2, 0.3, 0.4, 0.5])]
        kept = median_similarity_filter(profiles, 2)
        assert set(kept) == {"p1", "p3"}

    def test_full_pool(self):
        profiles = [profile(f"p{i}", 0.0, avg_sim=s) for i, s in enumerate([0.1, 0.2, 0.3, 0.4, 0.5])]
        assert set(median_similarity_filter(profiles, 5)) == {f"p{i}" for i in range(5)}

    def test_all_equal_takes_first_by_id(self):
        profiles = [profile(f"p{i}", 0.0, avg_sim=0.4) for i in range(6)]
        kept = median_similarity_filter(profiles, 4)
        assert kept == ["p0", "p1", "p2", "p3"]

    def test_more_than_pool_errors(self):
        profiles = [profile(f"p{i}", 0.0, avg_sim=s) for i, s in enumerate([0.1, 0.5])]
        with pytest.raises(DataError, match="requested 4"):
            median_similarity_filter(profiles, 4)

    def test_output_is_closest_first(self):
        sims = [0.0, 0.45, 0.5, 0.56, 1.0]
        profiles = [profile(f"p{i}", 0.0, avg_sim=s) for i, s in enumerate(sims)]
        kept = median_similarity_filter(profiles, 4)
        assert kept == ["p1", "p3", "p0", "p4"]


class TestBuildSets:
    def make_profiles(self):
        out = []
        for i in range(20):
            out.append(profile(f"u{i:02d}", 0.0))
        for i in range(20):
            out.append(profile(f"h{i:02d}", 0.5 if i % 2 else 0.45))
        for i in range(20):
            out.append(profile(f"k{i:02d}", 1.0))
        return out

    def test_unknown_sets_all_zero(self):
        result = build_sets(self.make_profiles(), "unknown", n_sets=4, set_size=5, seed=1)
        assert len(result.sets) == 4
        scores = {p.example_id: p.f1_em for p in self.make_profiles()}
        for s in result.sets:
            assert len(s.member_ids) == 5
            assert np.mean([scores[m] for m in s.member_ids]) == 0.0

    def test_known_sets_all_one(self):
        result = build_sets(self.make_profiles(), "known", n_sets=4, set_size=5, seed=1)
        scores = {p.example_id: p.f1_em for p in self.make_profiles()}
        for s in result.sets:
            assert np.mean([scores[m] for m in s.member_ids]) == 1.0
        assert not result.fallback_used

    def test_halfknown_band(self):
        result = build_sets(self.make_profiles(), "halfknown", n_sets=4, set_size=5, seed=1)
        scores = {p.example_id: p.f1_em for p in self.make_profiles()}
        for s in result.sets:
            for member in s.member_ids:
                assert 0.4 <= scores[member] <= 0.6

    def test_sets_disjoint(self):
        result = build_sets(self.make_profiles(), "random", n_sets=4, set_size=5, seed=3)
        seen: set[str] = set()
        for s in result.sets:
            assert not (set(s.member_ids) & seen)
            seen.update(s.member_ids)

    def test_known_fallback_takes_top_scorers(self):
        profiles = [profile(f"p{i:02d}", f1) for i, f1 in enumerate([1.0, 1.0, 0.9, 0.8, 0.7, 0.1])]
        result = build_sets(profiles, "known", n_sets=1, set_size=5, seed=0)
        assert result.fallback_used
        assert result.fallback_threshold == 0.7
        assert set(result.sets[0].member_ids) == {"p00", "p01", "p02", "p03", "p04"}

    def test_insufficient_candidates_error_reports_counts(self):
        profiles = [profile("a", 0.0), profile("b", 1.0)]
        with pytest.raises(DataError, match="1 qualifying"):
            build_sets(profiles, "unknown", n_sets=1, set_size=2, seed=0)

    def test_deterministic_per_seed(self):
        first = build_sets(self.make_profiles(), "random", n_sets=2, set_size=5, seed=8)
        second = build_sets(self.make_profiles(), "random", n_sets=2, set_size=5, seed=8)
        assert first.sets == second.sets
