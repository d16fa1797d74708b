from __future__ import annotations

import itertools

import numpy as np
import pytest

from iclforge.core import Example
from iclforge.errors import DataError, TooManyAnswers
from iclforge.lm import DEFAULT_FLOOR, MockModel, MockRule
from iclforge.ordering import (
    OrderedAnswerSet,
    answer_perplexity,
    greedy_permutation,
    order_alphabet,
    order_greedy,
    order_perplexity,
    order_random,
    select_quantile_answer,
    strategy_permutation,
)

from oracles import oracle_answer_perplexity, oracle_greedy_order
from rigs import CountingModel


def example(answers, example_id="ex"):
    return Example(id=example_id, question="q", answers=tuple(answers))


F1_VOCAB = ["new", "york", "jersey", "boston", "|", "\n"]
F1_RULES = [
    ("", "boston", 5.0),
    ("", "new", 3.0),
    ("new", "jersey", 4.0),
    ("new", "york", 1.0),
]


def f1_model():
    return MockModel(F1_VOCAB, tuple(MockRule(*r) for r in F1_RULES))


class TestAnswerPerplexity:
    def test_uniform_mock_gives_vocab_size(self):
        model = MockModel(["a", "b", "c", "d", "e"])
        assert answer_perplexity("", "a b", model) == pytest.approx(5.0, abs=1e-6)
        assert answer_perplexity("some prefix", "c", model) == pytest.approx(5.0, abs=1e-6)

    def test_certain_tokens_give_one(self):
        model = MockModel(["w", "x", "y", "z", "v"], (MockRule("", "w", 1.0),))
        pp = answer_perplexity("", "w w w", model)
        assert pp == pytest.approx(1.0, abs=1e-4)
        # floor-adjusted: each token holds 1 - 4*floor of the mass
        assert pp == pytest.approx(1.0 / (1.0 - 4 * DEFAULT_FLOOR), rel=1e-12)

    def test_f1_fixture_matches_independent_oracle(self, f1_mock):
        for answer in ("new york", "new jersey", "boston"):
            expected = oracle_answer_perplexity(F1_VOCAB, F1_RULES, DEFAULT_FLOOR, "", answer)
            assert answer_perplexity("", answer, f1_mock) == pytest.approx(expected, rel=1e-9)

    def test_empty_answer_rejected(self):
        with pytest.raises(DataError):
            answer_perplexity("", "  ", MockModel(["a"]))


class TestOrderPerplexity:
    def rigged_model(self):
        # make pp(a) < pp(b) < pp(c) via first-token weights
        return MockModel(
            ["a", "b", "c"],
            (MockRule("", "a", 9.0), MockRule("", "b", 3.0), MockRule("", "c", 1.0)),
        )

    def test_ascending_and_reverse(self):
        model = self.rigged_model()
        ex = example(["b", "c", "a"])
        forward = order_perplexity(ex, "", model)
        assert forward.order == (2, 0, 1)
        assert forward.scores is not None
        sorted_scores = [forward.scores[i] for i in forward.order]
        assert sorted_scores == sorted(sorted_scores)
        reverse = order_perplexity(ex, "", model, reverse=True)
        assert reverse.order == forward.order[::-1]

    def test_single_answer(self):
        model = self.rigged_model()
        assert order_perplexity(example(["a"]), "", model).order == (0,)
        assert order_perplexity(example(["a"]), "", model, reverse=True).order == (0,)

    def test_ties_keep_gold_order(self):
        model = MockModel(["a", "b", "c"])  # uniform: all perplexities equal
        assert order_perplexity(example(["c", "a", "b"]), "", model).order == (0, 1, 2)

    def test_twenty_answers_rejected(self):
        model = self.rigged_model()
        ex = example([f"a{i}" for i in range(20)])
        with pytest.raises(TooManyAnswers):
            order_perplexity(ex, "", model)

    def test_matches_recomputed_perplexities(self, f1_mock):
        ex = example(["new york", "new jersey", "boston"])
        result = order_perplexity(ex, "", f1_mock)
        pps = [answer_perplexity("", a, f1_mock) for a in ex.answers]
        expected = sorted(range(3), key=lambda i: pps[i])
        assert list(result.order) == expected


class TestOrderGreedy:
    def test_spec_ordering_on_f1_fixture(self, f1_mock):
        ex = example(["new york", "new jersey", "boston"])
        result = order_greedy(ex, "", f1_mock)
        assert result.apply(ex.answers) == ["boston", "new jersey", "new york"]
        reverse = order_greedy(ex, "", f1_mock, reverse=True)
        assert reverse.order == result.order[::-1]

    def test_single_answer(self, f1_mock):
        assert order_greedy(example(["boston"]), "", f1_mock).order == (0,)

    def test_prefix_answer_completes_first(self):
        # "a" completes while "a b" is still viable; completion wins
        model = MockModel(["a", "b"])
        result = order_greedy(example(["a", "a b"]), "", model)
        assert result.order == (0, 1)

    def test_dominant_answer_emitted_first(self):
        model = MockModel(
            ["win", "x", "y"],
            (MockRule("", "win", 50.0), MockRule("", "x", 1.0), MockRule("", "y", 1.0)),
        )
        result = order_greedy(example(["x", "win", "y"]), "", model)
        assert result.order[0] == 1

    def test_twenty_answers_rejected(self, f1_mock):
        ex = example([f"boston{i}" for i in range(20)])
        with pytest.raises(TooManyAnswers):
            order_greedy(ex, "", f1_mock)

    def test_duplicate_answers_both_emitted(self):
        model = MockModel(["a", "b"])
        result = order_greedy(example(["a", "a"]), "", model)
        assert sorted(result.order) == [0, 1]


def random_fixture(rng: np.random.Generator):
    """A random rule table plus a random answer set over a small vocabulary."""
    vocab = ["a", "b", "c", "d", "|", "\n"]
    word_tokens = ["a", "b", "c", "d"]
    n_answers = int(rng.integers(1, 5))
    answers = []
    seen = set()
    for _ in range(n_answers):
        length = int(rng.integers(1, 4))
        answer = " ".join(rng.choice(word_tokens, size=length))
        if answer not in seen:
            seen.add(answer)
            answers.append(answer)
    suffix_pool = ["", "a", "b", "c", "a b", "b |", "c a", "d", "|"]
    rules = []
    for _ in range(int(rng.integers(0, 8))):
        rules.append(
            (
                str(rng.choice(suffix_pool)),
                str(rng.choice(word_tokens)),
                float(rng.integers(1, 10)),
            )
        )
    return vocab, rules, answers


class TestGreedyForcedSteps:
    def test_only_contested_steps_reach_the_backend(self, f1_mock):
        model = CountingModel(f1_mock, refuse_forced=True)
        ex = example(["new york", "new jersey", "boston"])
        result = order_greedy(ex, "", model)
        assert result.apply(ex.answers) == ["boston", "new jersey", "new york"]
        # one score per answer; next-token only for {boston, new} and {jersey, york}
        assert model.counts == {"score": 3, "next_token": 2}
        assert model.candidate_lists == [("boston", "new"), ("jersey", "york")]

    def test_one_answer_set_makes_no_backend_call(self, f1_mock):
        model = CountingModel(f1_mock)
        for strategy in ("greedy", "reverse_greedy"):
            assert strategy_permutation(strategy, ["new york"], model=model) == [0]
        assert model.counts == {}

    def test_blank_answer_rejected_before_any_call(self, f1_mock):
        model = CountingModel(f1_mock)
        for answers in (["  "], ["boston", " "]):
            with pytest.raises(DataError):
                greedy_permutation(answers, "", model)
        assert model.counts == {}


# answer sets whose answers share leading tokens or are token prefixes of one
# another, so decoding passes through steps that only one token can take
SHARED_PREFIX_SETS = (
    ["a", "a b"],
    ["a b", "a"],
    ["a b c", "a b", "a"],
    ["a b", "a c", "b"],
    ["c d a", "c d", "d"],
    ["b a", "b a", "b"],
)


class TestGreedyAgainstSimulation:
    def test_hundred_random_rule_tables(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 100:
            vocab, rules, answers = random_fixture(rng)
            model = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            ex = example(answers, example_id=f"fix{checked}")
            got = list(order_greedy(ex, "p:", model).order)
            expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, "p:", answers)
            assert got == expected, (vocab, rules, answers)
            checked += 1

    def test_forced_steps_skipped_on_random_rule_tables(self):
        rng = np.random.default_rng(20261018)
        for table in range(100):
            vocab, rules, random_answers = random_fixture(rng)
            inner = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            for answers in (random_answers, *SHARED_PREFIX_SETS):
                model = CountingModel(inner, refuse_forced=True)
                got = greedy_permutation(answers, "p:", model)
                expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, "p:", answers)
                assert got == expected, (table, rules, answers)


class TestOrderAlphabet:
    def test_case_insensitive(self):
        result = order_alphabet(example(["banana", "Apple"]))
        assert result.apply(("banana", "Apple")) == ["Apple", "banana"]

    def test_no_size_limit(self):
        answers = [f"item {i:02d}" for i in range(25)]
        assert len(order_alphabet(example(answers)).order) == 25

    def test_ties_keep_original_order(self):
        assert order_alphabet(example(["a", "a"])).order == (0, 1)

    def test_sorted_input_is_identity(self):
        assert order_alphabet(example(["a", "b", "c"])).order == (0, 1, 2)


class TestOrderRandom:
    def test_single_answer(self):
        assert order_random(example(["only"]), seed=3).order == (0,)

    def test_deterministic_per_seed(self):
        ex = example(list("abcdefg"))
        assert order_random(ex, seed=5).order == order_random(ex, seed=5).order

    def test_varies_with_example_id(self):
        a = order_random(example(list("abcdefg"), example_id="one"), seed=5).order
        b = order_random(example(list("abcdefg"), example_id="two"), seed=5).order
        assert a != b  # astronomically unlikely collision for 7! permutations

    def test_uniform_over_permutations(self):
        ex = example(["x", "y", "z"])
        counts: dict[tuple, int] = {}
        trials = 10_000
        for seed in range(trials):
            order = order_random(ex, seed=seed).order
            counts[order] = counts.get(order, 0) + 1
        assert set(counts) == set(itertools.permutations(range(3)))
        for permutation, count in counts.items():
            assert abs(count / trials - 1 / 6) < 0.02, permutation


class TestQuantileSelection:
    def rigged(self):
        # pp: slow=high, mid=middle, fast=low
        model = MockModel(
            ["slow", "mid", "fast"],
            (MockRule("", "fast", 16.0), MockRule("", "mid", 4.0), MockRule("", "slow", 1.0)),
        )
        return example(["slow", "mid", "fast"]), model

    def test_full_quantile_is_most_known(self):
        ex, model = self.rigged()
        assert select_quantile_answer(ex, "", model, x=1.0) == "fast"

    def test_zero_quantile_is_least_known(self):
        ex, model = self.rigged()
        assert select_quantile_answer(ex, "", model, x=0.0) == "slow"

    def test_middle_quantile(self):
        ex, model = self.rigged()
        assert select_quantile_answer(ex, "", model, x=0.5) == "mid"

    def test_out_of_range_rejected(self):
        ex, model = self.rigged()
        with pytest.raises(DataError):
            select_quantile_answer(ex, "", model, x=1.5)


class TestPermutationProperties:
    def test_every_strategy_returns_permutation(self, f1_mock):
        answers = ("new york", "boston", "new jersey")
        for strategy in ("random", "alphabet", "perplexity", "reverse_perplexity", "greedy", "reverse_greedy"):
            permutation = strategy_permutation(
                strategy, answers, prefix="", model=f1_mock, example_id="e", seed=1
            )
            assert sorted(permutation) == [0, 1, 2], strategy

    def test_reverse_variants_are_exact_reversals(self, f1_mock):
        answers = ("new york", "boston", "new jersey")
        for forward, backward in (("perplexity", "reverse_perplexity"), ("greedy", "reverse_greedy")):
            fwd = strategy_permutation(forward, answers, prefix="", model=f1_mock)
            bwd = strategy_permutation(backward, answers, prefix="", model=f1_mock)
            assert bwd == fwd[::-1]

    def test_invalid_permutation_rejected(self):
        with pytest.raises(DataError):
            OrderedAnswerSet(example_id="e", strategy="alphabet", order=(0, 0, 1))
