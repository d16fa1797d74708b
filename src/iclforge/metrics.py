"""Evaluation measures: EM, token F1, set-level F1, adherence, bootstrap tests."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .core import Prediction, derive_rng, normalize_answer
from .errors import DataError, NoComparablePairs

MATCHERS = ("exact", "token_f1")

MIN_RESAMPLES = 1000

P = TypeVar("P")  # a Prediction, or anything else with `.answers`


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def token_f1(pred: str, gold: str) -> float:
    """Bag-of-tokens F1 over normalized tokens (multiset intersection)."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    return _f1(overlap / len(pred_tokens), overlap / len(gold_tokens))


@dataclass(frozen=True)
class SetScores:
    precision: float
    recall: float
    f1: float
    matcher: str


def set_scores(
    pred: Sequence[str], gold: Sequence[str], matcher: str = "exact"
) -> SetScores:
    """Set-level precision/recall/F1 with answer-level correctness `matcher`.

    Each (predicted, gold) pair is scored once into a P×G match table: 1.0 or
    0.0 for equal normalized forms under the exact matcher, their token F1
    under the token matcher. An answer's correctness is its best match, so
    precision is the mean of the row maxima and recall the mean of the column
    maxima. Token F1 is symmetric bit for bit, so the one table serves both.
    """
    if matcher not in MATCHERS:
        raise DataError(f"unknown matcher {matcher!r}")
    if not gold:
        raise DataError("gold answer set is empty")
    if not pred:
        return SetScores(0.0, 0.0, 0.0, matcher)
    if matcher == "exact":
        norm_gold = [normalize_answer(g) for g in gold]
        table = [[float(p == g) for g in norm_gold] for p in map(normalize_answer, pred)]
    else:
        table = [[token_f1(p, g) for g in gold] for p in pred]
    precision = sum(map(max, table)) / len(pred)
    recall = sum(map(max, zip(*table))) / len(gold)
    return SetScores(precision, recall, _f1(precision, recall), matcher)


def set_exact_match(pred: Sequence[str], gold: Sequence[str]) -> int:
    """1 iff the normalized predicted set equals the normalized gold set."""
    return int(
        {normalize_answer(p) for p in pred} == {normalize_answer(g) for g in gold}
    )


@dataclass(frozen=True)
class AdherenceResult:
    phi: float
    preserved_pairs: int
    violated_pairs: int
    examples_counted: int


def adherence_phi(
    predictions: Iterable[P],
    reorderer: Callable[[P], Sequence[int] | None],
) -> AdherenceResult:
    """Micro-averaged percentage of consecutive answer pairs in strategy order.

    `reorderer` maps a prediction to one strategy-order index per predicted
    answer (duplicates share an index and their pairs count in neither
    direction), or None to skip the prediction. Of each prediction only
    `.answers` is read, so a harness record serves as well as a `Prediction`.
    """
    preserved = 0
    violated = 0
    counted = 0
    for prediction in predictions:
        ranks = reorderer(prediction)
        if ranks is None:
            continue
        if len(ranks) != len(prediction.answers):
            raise DataError(
                f"reorderer returned {len(ranks)} indices for "
                f"{len(prediction.answers)} answers"
            )
        p = sum(a < b for a, b in zip(ranks, ranks[1:]))
        n = sum(a > b for a, b in zip(ranks, ranks[1:]))
        if p + n:
            counted += 1
            preserved += p
            violated += n
    if preserved + violated == 0:
        raise NoComparablePairs("no prediction contributed a comparable answer pair")
    return AdherenceResult(
        phi=100.0 * preserved / (preserved + violated),
        preserved_pairs=preserved,
        violated_pairs=violated,
        examples_counted=counted,
    )


def strategy_ranks(answers: Sequence[str], permutation: Sequence[int]) -> list[int]:
    """Ranks of each answer position in the strategy-permuted list.

    Duplicate answer strings share the rank of their first occurrence in the
    permuted list, so pairs of duplicates are neutral for the adherence count.
    """
    first_rank: dict[str, int] = {}
    for rank, position in enumerate(permutation):
        first_rank.setdefault(answers[position], rank)
    return [first_rank[a] for a in answers]


def not_in_prompt_scores(
    prediction: Prediction,
    gold: Sequence[str],
    prompt_answers: set[str],
) -> SetScores | None:
    """Exact-match set scores restricted to answers absent from the prompt.

    `prompt_answers` holds the normalized union of all shot answers. Returns
    None when every gold answer already appeared in the prompt.
    """
    kept_gold = [g for g in gold if normalize_answer(g) not in prompt_answers]
    if not kept_gold:
        return None
    kept_pred = [p for p in prediction.answers if normalize_answer(p) not in prompt_answers]
    return set_scores(kept_pred, kept_gold, matcher="exact")


def paired_bootstrap(
    scores_a: Sequence[float] | Sequence[Sequence[float]],
    scores_b: Sequence[float] | Sequence[Sequence[float]],
    resamples: int = 10_000,
    seed: int = 0,
) -> float | list[float]:
    """One-sided paired bootstrap p-value for "system a beats system b".

    p is the fraction of resamples (with replacement, paired by example) where
    mean(a) - mean(b) <= 0. Each resample derives its own generator from
    (seed, resample index), so chunked parallel evaluation would match the
    serial result exactly. Given (metrics, n) arrays, all rows share the
    resamples and the result is one p-value per row, each that of its row alone.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape:
        shapes = " vs ".join(" x ".join(map(str, s.shape)) for s in (a, b))
        raise DataError(f"score vectors differ in length: {shapes}")
    n = a.shape[-1]
    if n == 0:
        raise DataError("empty score vectors")
    if resamples < MIN_RESAMPLES:
        raise DataError(f"resamples must be at least {MIN_RESAMPLES}")
    non_positive = np.zeros(a.shape[:-1], dtype=np.int64)
    for r in range(resamples):
        idx = derive_rng(seed, "bootstrap", str(r)).integers(0, n, size=n)
        # take() gathers C-contiguous rows, so each row's mean sums in the
        # same (pairwise) order as a 1-D mean; a[:, idx] would not
        delta = a.take(idx, axis=-1).mean(axis=-1) - b.take(idx, axis=-1).mean(axis=-1)
        non_positive += delta <= 0.0
    p_values = non_positive / resamples
    return float(p_values) if a.ndim == 1 else p_values.tolist()
