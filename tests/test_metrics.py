from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iclforge.core import Prediction, normalize_answer
from iclforge.errors import DataError, NoComparablePairs
from iclforge.metrics import (
    adherence_phi,
    not_in_prompt_scores,
    paired_bootstrap,
    set_exact_match,
    set_scores,
    strategy_ranks,
    token_f1,
)
from iclforge.ordering import alphabet_permutation

from oracles import oracle_set_scores

SYMBOLS = [f"s{i}" for i in range(10)]

answer_strategy = st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3).map(" ".join)

# words that share tokens, normalize to nothing ("the", "!!") or keep only a
# token once punctuation goes ("s1!"), so matches, partial overlaps and empty
# answers are all common
PIECES = ["s1", "s2", "S1", "s1!", "the", "an", "!!", "...", "-", "s3 s1"]
rough_answer = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=4).map(" ".join),
    st.text(alphabet="s12 !.-", max_size=6),
)


def prediction(answers, example_id="e"):
    return Prediction(example_id, tuple(answers), " | ".join(answers))


class TestExactMatch:
    # an answer matches exactly when the normalized strings are equal
    def test_normalization_applied(self):
        assert normalize_answer("The TV show Friends") == normalize_answer("tv show friends")

    def test_mismatch(self):
        assert normalize_answer("Friends") != normalize_answer("Friend")

    def test_empty_identity(self):
        assert normalize_answer("") == ""


class TestTokenF1:
    def test_partial_overlap(self):
        assert token_f1("the TV show Friends", "Friends") == pytest.approx(0.5)

    def test_identical(self):
        assert token_f1("exact words here", "exact words here") == 1.0

    def test_disjoint(self):
        assert token_f1("alpha beta", "gamma delta") == 0.0

    def test_both_empty(self):
        assert token_f1("", "the") == 1.0  # both normalize to nothing

    def test_one_side_empty(self):
        assert token_f1("", "word") == 0.0


class TestSetScores:
    def test_exact_two_of_three(self):
        scores = set_scores(["a", "b", "x"], ["a", "b", "c"], matcher="exact")
        assert scores.precision == pytest.approx(2 / 3)
        assert scores.recall == pytest.approx(2 / 3)
        assert scores.f1 == pytest.approx(2 / 3)

    def test_identity(self):
        scores = set_scores(["a", "b"], ["a", "b"], matcher="exact")
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        scores = set_scores([], ["a"], matcher="exact")
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_empty_gold_rejected(self):
        with pytest.raises(DataError):
            set_scores(["a"], [], matcher="exact")

    def test_token_matcher_uses_best_match(self):
        scores = set_scores(["the TV show Friends"], ["Friends", "Cheers"], matcher="token_f1")
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(0.25)

    @given(
        st.lists(answer_strategy, max_size=6),
        st.lists(answer_strategy, min_size=1, max_size=6),
        st.sampled_from(["exact", "token_f1"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_rational_oracle(self, pred, gold, matcher):
        got = set_scores(pred, gold, matcher=matcher)
        p, r, f1 = oracle_set_scores(pred, gold, matcher)
        assert got.precision == pytest.approx(float(p), abs=1e-12)
        assert got.recall == pytest.approx(float(r), abs=1e-12)
        assert got.f1 == pytest.approx(float(f1), abs=1e-12)

    @given(
        st.lists(answer_strategy, min_size=1, max_size=6),
        st.lists(answer_strategy, min_size=1, max_size=6),
        st.randoms(),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, pred, gold, rnd):
        base = set_scores(pred, gold, matcher="exact")
        shuffled_pred = list(pred)
        shuffled_gold = list(gold)
        rnd.shuffle(shuffled_pred)
        rnd.shuffle(shuffled_gold)
        again = set_scores(shuffled_pred, shuffled_gold, matcher="exact")
        assert again == base

    @given(
        st.lists(answer_strategy, min_size=1, max_size=6),
        st.lists(answer_strategy, min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_matcher_swaps_precision_recall(self, pred, gold):
        forward = set_scores(pred, gold, matcher="exact")
        backward = set_scores(gold, pred, matcher="exact")
        assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
        assert forward.recall == pytest.approx(backward.precision, abs=1e-12)


def two_pass_set_scores(pred, gold, matcher):
    """`set_scores` as two passes: exact set membership, or token F1 each way."""
    if not pred:
        return 0.0, 0.0, 0.0
    if matcher == "exact":
        norm_gold = {normalize_answer(g) for g in gold}
        norm_pred = {normalize_answer(p) for p in pred}
        precision = sum(float(normalize_answer(p) in norm_gold) for p in pred) / len(pred)
        recall = sum(float(normalize_answer(g) in norm_pred) for g in gold) / len(gold)
    else:
        precision = sum(max(token_f1(p, g) for g in gold) for p in pred) / len(pred)
        recall = sum(max(token_f1(g, p) for p in pred) for g in gold) / len(gold)
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


class TestMatchTable:
    """One table of pair scores gives the two-pass formula's floats, bit for bit."""

    @given(
        st.lists(rough_answer, max_size=7),
        st.lists(rough_answer, min_size=1, max_size=7),
        st.sampled_from(["exact", "token_f1"]),
    )
    @example([], ["the"], "exact")
    @example([], ["s1"], "token_f1")
    @example(["s1", "s1", "S1!"], ["s1", "s2", "s1"], "exact")
    @example(["s1 s2", "s2 s1", "s1"], ["s1", "s2 s2", "s1"], "token_f1")
    @example(["the", "!!"], ["an", "s1"], "token_f1")
    @example(["!!", "..."], ["-", "s2 s1"], "exact")
    @settings(max_examples=400, deadline=None)
    def test_equals_the_two_pass_formula(self, pred, gold, matcher):
        got = set_scores(pred, gold, matcher=matcher)
        want = two_pass_set_scores(pred, gold, matcher)
        assert [x.hex() for x in (got.precision, got.recall, got.f1)] == [x.hex() for x in want]

    @given(rough_answer, rough_answer)
    @example("s1 s2 s3", "s1 s1 s3")
    @settings(max_examples=400, deadline=None)
    def test_token_f1_is_symmetric_bit_for_bit(self, a, b):
        assert token_f1(a, b).hex() == token_f1(b, a).hex()


class TestSetExactMatch:
    def test_equal_sets(self):
        assert set_exact_match(["The Cat", "dog"], ["cat", "a Dog"]) == 1

    def test_subset_is_not_match(self):
        assert set_exact_match(["cat"], ["cat", "dog"]) == 0


def alphabet_reorderer(pred: Prediction):
    return strategy_ranks(pred.answers, alphabet_permutation(pred.answers))


class TestAdherencePhi:
    def test_already_ordered_gives_100(self):
        preds = [prediction(["a", "b", "c"]), prediction(["x", "y"])]
        assert adherence_phi(preds, alphabet_reorderer).phi == 100.0

    def test_reversed_gives_0(self):
        preds = [prediction(["c", "b", "a"])]
        assert adherence_phi(preds, alphabet_reorderer).phi == 0.0

    def test_hand_case_50(self):
        result = adherence_phi([prediction(["b", "a", "c"])], alphabet_reorderer)
        assert result.phi == 50.0
        assert result.preserved_pairs == 1
        assert result.violated_pairs == 1

    def test_duplicates_are_neutral(self):
        result = adherence_phi([prediction(["a", "a", "b"])], alphabet_reorderer)
        assert result.phi == 100.0
        assert result.preserved_pairs == 1  # only the (a, b) pair counts

    def test_no_pairs_raises(self):
        with pytest.raises(NoComparablePairs):
            adherence_phi([prediction(["only"]), prediction([])], alphabet_reorderer)

    def test_skipped_predictions_contribute_nothing(self):
        def reorderer(pred: Prediction):
            if pred.example_id == "skip":
                return None
            return alphabet_reorderer(pred)

        preds = [prediction(["a", "b"]), prediction(["z", "y"], example_id="skip")]
        result = adherence_phi(preds, reorderer)
        assert result.phi == 100.0
        assert result.examples_counted == 1

    @given(
        st.lists(
            st.lists(st.sampled_from(SYMBOLS), min_size=2, max_size=6, unique=True),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_plus_reverse_is_100(self, answer_lists):
        preds = [prediction(a, example_id=f"e{i}") for i, a in enumerate(answer_lists)]

        def forward(pred):
            return strategy_ranks(pred.answers, alphabet_permutation(pred.answers))

        def backward(pred):
            return strategy_ranks(pred.answers, alphabet_permutation(pred.answers)[::-1])

        phi_f = adherence_phi(preds, forward).phi
        phi_r = adherence_phi(preds, backward).phi
        assert phi_f + phi_r == pytest.approx(100.0)


class TestNotInPrompt:
    def test_restriction(self):
        scores = not_in_prompt_scores(
            prediction(["x", "y"]), ["x", "z"], prompt_answers={"y"}
        )
        assert scores is not None
        assert scores.precision == 1.0
        assert scores.recall == 0.5

    def test_disjoint_prompt_equals_plain_scores(self):
        pred = prediction(["x", "y"])
        gold = ["x", "z"]
        restricted = not_in_prompt_scores(pred, gold, prompt_answers={"zzz"})
        plain = set_scores(pred.answers, gold, matcher="exact")
        assert restricted == plain

    def test_gold_subset_of_prompt_skips(self):
        assert not_in_prompt_scores(prediction(["x"]), ["x"], prompt_answers={"x"}) is None


class TestPairedBootstrap:
    def test_strict_dominance(self):
        a = [1.0, 0.9, 0.8, 1.0]
        b = [0.5, 0.4, 0.2, 0.9]
        assert paired_bootstrap(a, b, resamples=1000, seed=0) == 0.0

    def test_identical_scores(self):
        a = [0.3, 0.7, 0.5]
        assert paired_bootstrap(a, a, resamples=1000, seed=0) == 1.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        a = rng.random(30).tolist()
        b = rng.random(30).tolist()
        p1 = paired_bootstrap(a, b, resamples=1000, seed=9)
        p2 = paired_bootstrap(a, b, resamples=1000, seed=9)
        assert p1 == p2

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            paired_bootstrap([1.0], [1.0, 0.0], resamples=1000)
        with pytest.raises(DataError, match="2 x 1 vs 2 x 2"):
            paired_bootstrap([[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]], resamples=1000)

    def test_numpy_arrays_accepted(self):
        a = [1.0, 0.0, 1.0, 0.5]
        b = [0.0, 0.0, 1.0, 0.5]
        expected = paired_bootstrap(a, b, resamples=1000, seed=2)
        assert paired_bootstrap(np.array(a), np.array(b), resamples=1000, seed=2) == expected
        with pytest.raises(DataError, match="empty"):
            paired_bootstrap(np.array([]), np.array([]), resamples=1000)

    @pytest.mark.parametrize("n", [1, 2, 9, 40, 130])
    def test_matrix_rows_equal_one_row_calls(self, n):
        # fractions whose float sums depend on summation order, so a gather
        # that sums rows in another order than a 1-D mean moves some p-values
        rng = np.random.default_rng(n)
        values = np.array([0.0, 1 / 7, 1 / 3, 1 / 2, 2 / 3, 1.0])
        a = rng.choice(values, size=(6, n))
        b = rng.choice(values, size=(6, n))
        b[0] = a[0]
        b[1] = rng.permutation(a[1])
        b[2] = rng.permutation(a[2])
        p_values = paired_bootstrap(a, b, resamples=1000, seed=n)
        assert p_values == [
            paired_bootstrap(row_a, row_b, resamples=1000, seed=n)
            for row_a, row_b in zip(a.tolist(), b.tolist())
        ]
        assert all(type(p) is float for p in p_values)

    def test_too_few_resamples_rejected(self):
        with pytest.raises(DataError):
            paired_bootstrap([1.0], [0.0], resamples=10)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=20),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=7),
        st.randoms(),
    )
    @settings(max_examples=20, deadline=None)
    def test_affine_invariance(self, base, scale, shift, rnd):
        b = list(base)
        a = [x + rnd.choice([0, 1]) for x in base]
        p_raw = paired_bootstrap(a, b, resamples=1000, seed=3)
        a2 = [scale * x + shift for x in a]
        b2 = [scale * x + shift for x in b]
        p_scaled = paired_bootstrap(a2, b2, resamples=1000, seed=3)
        assert p_raw == p_scaled
