from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

from iclforge.core import EmbeddingTable, Example
from iclforge.errors import DataError, TooManyAnswers
from iclforge.lm import DEFAULT_FLOOR, MockModel, MockRule
from iclforge.ordering import (
    answer_perplexity,
    greedy_permutation,
    peer_prefix,
    perplexity_permutation,
    strategy_permutation,
)
from iclforge.prompting import render_prompt
from iclforge.retrieval import Pool

from oracles import (
    oracle_answer_perplexity,
    oracle_greedy_order,
    oracle_per_answer_greedy_calls,
)
from rigs import CountingModel, FoldedDelimiterModel, UnlikelyModel


def order(strategy, answers, model=None, prefix="", example_id="ex", seed=0):
    return strategy_permutation(
        strategy, answers, prefix=prefix, model=model, example_id=example_id, seed=seed
    )


F1_VOCAB = ["new", "york", "jersey", "boston", "|", "\n"]
F1_RULES = [
    ("", "boston", 5.0),
    ("", "new", 3.0),
    ("new", "jersey", 4.0),
    ("new", "york", 1.0),
]


def f1_model():
    return MockModel(F1_VOCAB, tuple(MockRule(*r) for r in F1_RULES))


class TestPeerPrefix:
    table = EmbeddingTable.from_vectors({"t0": [1.0, 0.0], "t1": [0.6, 0.8]})
    t0 = Example(id="t0", question="first?", answers=("a",))
    t1 = Example(id="t1", question="second?", answers=("b",))

    def test_an_example_held_twice_is_not_its_own_peer(self):
        bare = render_prompt([], "first?")
        assert peer_prefix(self.t0, Pool.of([self.t0, self.t0], self.table), 1) == bare
        expected = render_prompt([("second?", ("b",))], "first?")
        assert peer_prefix(self.t0, Pool.of([self.t0, self.t1, self.t0], self.table), 2) == expected

    def test_k_zero_needs_no_embedding(self):
        outsider = Example(id="x", question="outside?", answers=("c",))
        bare = render_prompt([], "outside?")
        pool = Pool.of([self.t0, self.t1], self.table)
        assert peer_prefix(outsider, pool, 0) == bare
        with pytest.raises(DataError, match="missing embedding for id x"):
            peer_prefix(outsider, pool, 1)


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
        answers = ["b", "c", "a"]
        forward = order("perplexity", answers, model)
        assert forward == [2, 0, 1]
        scores = [answer_perplexity("", a, model) for a in answers]
        sorted_scores = [scores[i] for i in forward]
        assert sorted_scores == sorted(sorted_scores)
        reverse = order("reverse_perplexity", answers, model)
        assert reverse == forward[::-1]

    def test_single_answer(self):
        model = self.rigged_model()
        assert order("perplexity", ["a"], model) == [0]
        assert order("reverse_perplexity", ["a"], model) == [0]

    def test_ties_keep_gold_order(self):
        model = MockModel(["a", "b", "c"])  # uniform: all perplexities equal
        assert order("perplexity", ["c", "a", "b"], model) == [0, 1, 2]

    def test_twenty_answers_rejected(self):
        model = self.rigged_model()
        with pytest.raises(TooManyAnswers):
            order("perplexity", [f"a{i}" for i in range(20)], model)

    def test_matches_recomputed_perplexities(self, f1_mock):
        answers = ["new york", "new jersey", "boston"]
        result = order("perplexity", answers, f1_mock)
        pps = [answer_perplexity("", a, f1_mock) for a in answers]
        expected = sorted(range(3), key=lambda i: pps[i])
        assert result == expected


class TestPerplexitySaturation:
    """A finite reply whose logprobs average below about -709.8 per token makes a
    perplexity beyond the float range, which saturates at the largest float."""

    @pytest.mark.parametrize("logprob", [-1000.0, -1e308], ids=["mean-beyond-exp", "sum-to-inf"])
    def test_saturates_at_the_largest_float(self, f1_mock, logprob):
        # -1e308 twice sums to -inf, whose exp is inf without an OverflowError
        model = UnlikelyModel(f1_mock, {" new york"}, logprob)
        assert answer_perplexity("", "new york", model) == sys.float_info.max

    def test_saturated_answers_keep_their_index_order(self, f1_mock):
        answers = ["new york", "boston", "new jersey"]
        model = UnlikelyModel(f1_mock, {" new york", " new jersey"})
        assert perplexity_permutation(answers, "", model) == [1, 0, 2]
        assert order("reverse_perplexity", answers, model) == [2, 0, 1]


class TestOrderGreedy:
    def test_spec_ordering_on_f1_fixture(self, f1_mock):
        answers = ["new york", "new jersey", "boston"]
        result = order("greedy", answers, f1_mock)
        assert [answers[i] for i in result] == ["boston", "new jersey", "new york"]
        reverse = order("reverse_greedy", answers, f1_mock)
        assert reverse == result[::-1]

    def test_single_answer(self, f1_mock):
        assert order("greedy", ["boston"], f1_mock) == [0]

    def test_prefix_answer_completes_first(self):
        # "a" completes while "a b" is still viable; completion wins
        model = MockModel(["a", "b"])
        assert order("greedy", ["a", "a b"], model) == [0, 1]

    def test_dominant_answer_emitted_first(self):
        model = MockModel(
            ["win", "x", "y"],
            (MockRule("", "win", 50.0), MockRule("", "x", 1.0), MockRule("", "y", 1.0)),
        )
        assert order("greedy", ["x", "win", "y"], model)[0] == 1

    def test_twenty_answers_rejected(self, f1_mock):
        with pytest.raises(TooManyAnswers):
            order("greedy", [f"boston{i}" for i in range(20)], f1_mock)

    def test_duplicate_answers_both_emitted(self):
        model = MockModel(["a", "b"])
        assert sorted(order("greedy", ["a", "a"], model)) == [0, 1]


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
        answers = ["new york", "new jersey", "boston"]
        result = order("greedy", answers, model)
        assert [answers[i] for i in result] == ["boston", "new jersey", "new york"]
        # one score of the answer line tokenizes all three; each contested
        # step, {boston, new} and then {jersey, york}, asks for next tokens
        assert model.counts == {"score": 1, "next_token": 2}
        assert model.requests[0] == ("score", "", " new york | new jersey | boston")
        assert model.candidate_lists == [("boston", "new"), ("jersey", "york")]

    def test_answers_that_do_not_spell_their_tokens_ask_every_contested_step(self, f1_mock):
        model = CountingModel(f1_mock, refuse_forced=True)
        answers = ["new  york", "new  jersey", " boston"]
        result = order("greedy", answers, model)
        assert [answers[i] for i in result] == [" boston", "new  jersey", "new  york"]
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


def spaced_fixture(rng: np.random.Generator):
    """`random_fixture` with answers that may hold doubled, leading or
    trailing spaces, and rules keyed on such spacing."""
    vocab, rules, answers = random_fixture(rng)
    spaced = []
    for answer in answers:
        gaps = rng.choice([" ", "  "], size=answer.count(" "))
        tokens = answer.split(" ")
        text = tokens[0] + "".join(g + t for g, t in zip(gaps, tokens[1:]))
        lead, trail = rng.choice(["", " "], size=2)
        spaced.append(lead + text + trail)
    spaced_suffixes = ["a  b", "p:  a", "p: a", "b  c", " a b", " a  b"]
    for _ in range(int(rng.integers(0, 4))):
        suffix, token = str(rng.choice(spaced_suffixes)), str(rng.choice(vocab[:4]))
        rules.append((suffix, token, float(rng.integers(1, 10))))
    return vocab, rules, spaced


class TestGreedyFirstSegment:
    # greedy's context stays "p: a b" while the score reply for "a  b c" saw
    # "p: a  b": reading c's logprob from that reply would emit it first
    SPACING_CASE = (
        ["a", "b", "c", "d", "|", "\n"],
        [(" a b", "d", 1.0), (" a  b", "c", 1.0)],
        ["a  b c", "a b d"],
    )

    def test_spacing_case_asks_the_backend(self):
        vocab, rules, answers = self.SPACING_CASE
        model = CountingModel(MockModel(vocab, tuple(MockRule(*r) for r in rules)))
        assert greedy_permutation(answers, "p:", model) == [1, 0]
        assert model.candidate_lists == [("c", "d")]

    def test_irregular_spacing_on_random_rule_tables(self):
        rng = np.random.default_rng(20261019)
        tables = [self.SPACING_CASE, *(spaced_fixture(rng) for _ in range(200))]
        for table, (vocab, rules, answers) in enumerate(tables):
            model = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            for prefix in ("p:", "p: "):
                got = greedy_permutation(answers, prefix, model)
                expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, prefix, answers)
                assert got == expected, (table, rules, answers, prefix)

    def test_no_next_token_request_before_the_first_answer_completes(self):
        # on the per-answer path, taken here because the answer line's reply
        # does not split on spaces, the score replies decide the first answer
        rng = np.random.default_rng(20261020)
        asked = 0
        for _ in range(100):
            vocab, rules, random_answers = random_fixture(rng)
            inner = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            for answers in (random_answers, *SHARED_PREFIX_SETS):
                model = CountingModel(FoldedDelimiterModel(inner), refuse_forced=True)
                got = greedy_permutation(answers, "p:", model)
                assert got == oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, "p:", answers)
                # "|" joins the context only once an answer has completed
                assert all("|" in ctx for ctx in model.next_token_contexts), (rules, answers)
                if len(answers) > 1:
                    assert model.counts["score"] == 1 + len(set(answers)), (rules, answers)
                asked += len(model.next_token_contexts)
        assert asked > 0

    def test_two_answers_with_one_contested_step_cost_only_their_scores(self, f1_mock):
        # one score of the answer line, then {jersey, york} asks for next tokens
        model = CountingModel(f1_mock)
        assert order("greedy", ["new york", "new jersey"], model) == [1, 0]
        assert model.counts == {"score": 1, "next_token": 1}
        # per answer, the score replies decide the contested step: the line's
        # score, then one per answer
        model = CountingModel(FoldedDelimiterModel(f1_mock))
        assert order("greedy", ["new york", "new jersey"], model) == [1, 0]
        assert model.counts == {"score": 3}


@pytest.fixture
def mock_requests(monkeypatch):
    """Every request a MockModel answers, as (op, *arguments), recorded by patching
    its three op methods on the class, as the benchmark counts them."""
    requests: list[tuple] = []
    for method, op in (
        ("score_continuation", "score"),
        ("next_token_distribution", "next_token"),
        ("generate", "generate"),
    ):

        def recorded(self, *args, _original=vars(MockModel)[method], _op=op):
            requests.append((_op, *(tuple(a) if isinstance(a, list) else a for a in args)))
            return _original(self, *args)

        monkeypatch.setattr(MockModel, method, recorded)
    return requests


class TestGreedyAnswerLine:
    """Greedy tokenizes a set with one score of its answer line when it can, and
    with none on a backend that splits on spaces."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(20261021)
        for _ in range(150):
            vocab, rules, answers = random_fixture(rng)
            yield vocab, rules, answers
            for shared in SHARED_PREFIX_SETS:
                yield vocab, rules, shared
        for _ in range(150):
            yield spaced_fixture(rng)

    def test_orders_match_and_calls_never_exceed_scoring_each_answer(self):
        joined_sets = 0
        for table, (vocab, rules, answers) in enumerate(self.tables()):
            inner = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            distinct = list(dict.fromkeys(answers))
            clean = len(answers) > 1 and all("" not in a.split(" ") for a in distinct)
            for prefix in ("p:", "p: "):
                expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, prefix, answers)
                per_answer = oracle_per_answer_greedy_calls(
                    vocab, rules, DEFAULT_FLOOR, prefix, answers
                )
                case = (table, rules, answers, prefix)
                model = CountingModel(inner, refuse_forced=True)
                assert greedy_permutation(answers, prefix, model) == expected, case
                assert sum(model.counts.values()) <= per_answer, case
                scores = [r for r in model.requests if r[0] == "score"]
                if clean:
                    assert scores == [("score", prefix, " " + " | ".join(distinct))], case
                    joined_sets += 1
                else:
                    assert len(scores) == (len(distinct) if len(answers) > 1 else 0), case
                # a line whose reply does not split costs its one call, then
                # exactly what scoring each answer costs
                model = CountingModel(FoldedDelimiterModel(inner), refuse_forced=True)
                assert greedy_permutation(answers, prefix, model) == expected, case
                assert sum(model.counts.values()) == per_answer + clean, case
        assert joined_sets > 0

    def test_a_backend_that_splits_on_spaces_is_sent_no_answer_line(self, mock_requests):
        clean_sets = 0
        for table, (vocab, rules, answers) in enumerate(self.tables()):
            inner = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            distinct = list(dict.fromkeys(answers))
            clean = len(answers) > 1 and all("" not in a.split(" ") for a in distinct)
            for prefix in ("p:", "p: "):
                case = (table, rules, answers, prefix)
                expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, prefix, answers)
                # CountingModel does not split on spaces, so it takes the line path
                line_path = CountingModel(inner)
                assert greedy_permutation(answers, prefix, line_path) == expected, case
                mock_requests.clear()
                assert greedy_permutation(answers, prefix, inner) == expected, case
                if clean:
                    assert not [r for r in mock_requests if r[0] == "score"], case
                    next_tokens = [r for r in line_path.requests if r[0] == "next_token"]
                    assert mock_requests == next_tokens, case
                    clean_sets += 1
                else:
                    assert mock_requests == line_path.requests, case
        assert clean_sets > 0

    def test_a_backend_whose_line_does_not_split_pays_for_one_line_call(self):
        rng = np.random.default_rng(20261022)
        for table in range(50):
            vocab, rules, random_answers = random_fixture(rng)
            inner = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            splitting = CountingModel(inner, refuse_forced=True)
            folding = CountingModel(FoldedDelimiterModel(inner), refuse_forced=True)
            per_answer = clean_sets = 0
            for answers in (random_answers, *SHARED_PREFIX_SETS):
                for prefix in ("p:", "p: "):
                    expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, prefix, answers)
                    for model in (splitting, folding):
                        assert greedy_permutation(answers, prefix, model) == expected, table
                    per_answer += oracle_per_answer_greedy_calls(
                        vocab, rules, DEFAULT_FLOOR, prefix, answers
                    )
                    clean_sets += len(answers) > 1
            # a backend whose replies split keeps its one line call per set; the
            # first line reply that does not split is the only one asked for
            assert splitting.counts["score"] == clean_sets, (table, rules)
            assert sum(folding.counts.values()) == per_answer + 1, (table, rules)


class TestOneAnswerSets:
    def test_no_backend_call_under_any_perplexity_strategy(self, f1_mock):
        model = CountingModel(f1_mock)
        for strategy in ("perplexity", "reverse_perplexity"):
            assert strategy_permutation(strategy, ["new york"], model=model) == [0]
        assert model.counts == {}

    def test_blank_answer_rejected_before_any_call(self, f1_mock):
        model = CountingModel(f1_mock)
        for answers in (["  "], ["boston", " "]):
            for strategy in ("perplexity", "reverse_perplexity"):
                with pytest.raises(DataError):
                    strategy_permutation(strategy, answers, model=model)
        assert model.counts == {}


class TestGreedyAgainstSimulation:
    def test_hundred_random_rule_tables(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 100:
            vocab, rules, answers = random_fixture(rng)
            model = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            got = order("greedy", answers, model, prefix="p:")
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


def with_repeats(rng: np.random.Generator, answers: list[str]) -> list[str]:
    """`answers` in a random order with at least one answer given twice."""
    picks = rng.integers(len(answers), size=len(answers) + int(rng.integers(1, 4)))
    repeated = [answers[int(i)] for i in picks]
    if len(set(repeated)) == len(repeated):
        repeated.append(repeated[0])
    return repeated


class TestRepeatedAnswers:
    """A repeated answer is scored once: no backend request is made twice."""

    def test_two_copies_of_an_answer_cost_one_score(self):
        inner = MockModel(["a", "b", "c", "|"], (MockRule("", "a", 2.0),))
        answers = ["a b", "c", "a b"]
        for strategy, calls in (
            # one score of the line "a b | c"; {a, c} is contested twice
            ("greedy", {"score": 1, "next_token": 2}),
            ("perplexity", {"score": 2}),
        ):
            model = CountingModel(inner)
            order(strategy, answers, model)
            assert model.counts == calls, strategy

    def test_random_rule_tables_match_scoring_every_copy(self):
        rng = np.random.default_rng(20261019)
        for table in range(100):
            vocab, rules, distinct = random_fixture(rng)
            answers = with_repeats(rng, distinct)
            inner = MockModel(vocab, tuple(MockRule(*r) for r in rules))
            # the reference scores every copy, as a backend without repeats would
            per_copy = [answer_perplexity("p:", a, inner) for a in answers]
            by_perplexity = sorted(range(len(answers)), key=lambda i: per_copy[i])
            cases = (
                (
                    "greedy",
                    lambda m: greedy_permutation(answers, "p:", m),
                    oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, "p:", answers),
                ),
                ("perplexity", lambda m: order("perplexity", answers, m, "p:"), by_perplexity),
            )
            for name, run, expected in cases:
                model = CountingModel(inner)
                assert run(model) == expected, (table, name, rules, answers)
                assert len(set(model.requests)) == len(model.requests), (table, name)
                # greedy scores the line of distinct answers once
                scores = 1 if name == "greedy" else len(set(answers))
                assert model.counts["score"] == scores, (table, name)


class TestOrderAlphabet:
    def test_case_insensitive(self):
        answers = ("banana", "Apple")
        assert [answers[i] for i in order("alphabet", answers)] == ["Apple", "banana"]

    def test_no_size_limit(self):
        answers = [f"item {i:02d}" for i in range(25)]
        assert len(order("alphabet", answers)) == 25

    def test_ties_keep_original_order(self):
        assert order("alphabet", ["a", "a"]) == [0, 1]

    def test_sorted_input_is_identity(self):
        assert order("alphabet", ["a", "b", "c"]) == [0, 1, 2]


class TestOrderRandom:
    def test_single_answer(self):
        assert order("random", ["only"], seed=3) == [0]

    def test_deterministic_per_seed(self):
        answers = list("abcdefg")
        assert order("random", answers, seed=5) == order("random", answers, seed=5)

    def test_varies_with_example_id(self):
        a = order("random", list("abcdefg"), example_id="one", seed=5)
        b = order("random", list("abcdefg"), example_id="two", seed=5)
        assert a != b  # astronomically unlikely collision for 7! permutations

    def test_uniform_over_permutations(self):
        counts: dict[tuple, int] = {}
        trials = 10_000
        for seed in range(trials):
            permutation = tuple(order("random", ["x", "y", "z"], seed=seed))
            counts[permutation] = counts.get(permutation, 0) + 1
        assert set(counts) == set(itertools.permutations(range(3)))
        for permutation, count in counts.items():
            assert abs(count / trials - 1 / 6) < 0.02, permutation


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
