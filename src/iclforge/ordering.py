"""Answer-set ordering strategies.

Knowledge-aware strategies score answers against a prompt prefix ending in
``Answers:`` (for a shot, its ``peer_prefix``), so the scored continuation is
a single space followed by the raw answer (for greedy's line call, the whole
answer line), mirroring the answer's position in a rendered shot.
``strategy_permutation`` is the entry point for every strategy over an answer
list, and ``shot_order`` the one rule that orders a shot's answers for a
prompt.
"""

from __future__ import annotations

import logging
import math
import weakref
from typing import Sequence

from .core import Example, derive_rng
from .errors import DataError, TooManyAnswers, TransportError
from .lm import LanguageModel, TokenScores
from .prompting import ANSWER_DELIMITER, render_prompt
from .retrieval import Pool, RetrievalConfig, retrieve

log = logging.getLogger(__name__)

# strategies that score answers with a model against a shot prefix
MODEL_STRATEGIES = (
    "perplexity",
    "reverse_perplexity",
    "greedy",
    "reverse_greedy",
)

STRATEGIES = ("random", "alphabet") + MODEL_STRATEGIES

MAX_REORDER_ANSWERS = 20

# backends one of whose answer-line replies did not split on single spaces, or
# that failed to answer one; greedy scores each answer on them from then on, so
# a backend with subword tokens pays for one line call over its lifetime (one
# per thread that asked before the first reply came back), not one per answer set
_LINE_UNSPLIT: weakref.WeakSet[LanguageModel] = weakref.WeakSet()


def peer_prefix(example: Example, pool: Pool, k: int) -> str:
    """Prompt for `example` after its k most similar peers, each in gold order.

    This is the prefix the model-scored strategies order `example`'s answers
    against. The peers are drawn from `Pool.others` of `example` and ranked in
    the pool's table, and k is capped at their number, so with no peer the
    prefix is the bare query block, which needs no embedding of `example`.
    """
    k = min(k, len(pool.others(example)))
    peers = retrieve(example, pool, RetrievalConfig(strategy="similar", k=k)) if k >= 1 else []
    return render_prompt([(p.question, p.answers) for p in peers], example.question)


def _check_not_blank(answers: Sequence[str]) -> None:
    for answer in answers:
        if not answer.strip():
            raise DataError("cannot score an empty answer")


def answer_perplexity(prefix: str, answer: str, model: LanguageModel) -> float:
    """Length-normalized perplexity of one answer given the prompt prefix."""
    _check_not_blank([answer])
    scores = model.score_continuation(prefix, " " + answer)
    return math.exp(-sum(scores.logprobs) / scores.token_count)


def answer_perplexities(answers: Sequence[str], prefix: str, model: LanguageModel) -> list[float]:
    """Each answer's perplexity; a repeated answer is scored once."""
    scores = {a: answer_perplexity(prefix, a, model) for a in dict.fromkeys(answers)}
    return [scores[a] for a in answers]


def reorderable(answers: Sequence[str]) -> bool:
    """Whether `answers` is small enough to reorder: fewer than 20 answers."""
    return len(answers) < MAX_REORDER_ANSWERS


def perplexity_permutation(
    answers: Sequence[str], prefix: str, model: LanguageModel
) -> list[int]:
    """Indices sorted by ascending perplexity (stable).

    Each distinct answer costs one backend call, and a one-answer set none; a
    blank answer is rejected first.
    """
    _check_not_blank(answers)
    if len(answers) == 1:
        return [0]
    scores = answer_perplexities(answers, prefix, model)
    return sorted(range(len(answers)), key=lambda i: scores[i])


def _joined_tokens(
    distinct: Sequence[str], prefix: str, model: LanguageModel
) -> dict[str, tuple[str, ...]] | None:
    """Each answer's tokens as its own split on single spaces, or None.

    A set in which some answer has an empty space-split piece (doubled,
    leading or trailing spaces) is None before any call. Otherwise, on a
    backend that ``splits_on_spaces``, the split is the answer's tokens with
    no call. Any other backend is asked to score the whole answer line, ``" "
    + " | ".join(distinct)``, the line a gold-order shot renders, and the
    split holds when the reply's tokens are that line split on single spaces.
    A reply that does not split, such as subword tokens, or a transport error
    is None after the one call, and marks `model` so that every later set on
    it is None before any call.
    """
    pieces = [tuple(a.split(" ")) for a in distinct]
    if any("" in p for p in pieces) or model in _LINE_UNSPLIT:
        return None
    if not model.splits_on_spaces:
        joined = ANSWER_DELIMITER.join(distinct)
        try:
            tokens = model.score_continuation(prefix, " " + joined).tokens
        except TransportError as exc:
            # such as a cache written before the line call existed, in front of
            # a backend that is gone: the per-answer requests may still be cached
            log.warning("answer line not scored (%s); greedy scores each answer from now on", exc)
            _LINE_UNSPLIT.add(model)
            return None
        if tokens != tuple(joined.split(" ")):
            _LINE_UNSPLIT.add(model)
            return None
    return dict(zip(distinct, pieces))


def greedy_permutation(
    answers: Sequence[str], prefix: str, model: LanguageModel
) -> list[int]:
    """Constrained greedy decoding over the not-yet-emitted answers.

    At every step the permissible tokens are the next tokens of the remaining
    answers consistent with what has been emitted so far; the backend's argmax
    picks among them (ties to the lexicographically smaller token). When the
    emitted tokens complete a remaining answer, that answer is recorded, the
    ``" | "`` delimiter joins the working context, and decoding restarts on
    the remaining set.

    Backend cost: one ``next_token_distribution`` per contested step (two or
    more permissible tokens), after tokenizing every distinct answer at once:
    for free on a backend that ``splits_on_spaces`` (the mock, and a cache
    over it), else with one ``score_continuation`` of the whole answer line. A
    forced step costs no call, since the argmax over one candidate is that
    candidate; a one-answer set therefore costs none at all.

    When the set cannot be tokenized that way (see ``_joined_tokens``), each
    distinct answer costs one ``score_continuation`` instead; on a backend
    whose line replies do not split, or that failed to answer one, that is
    every set, plus the line calls made before the first such reply came
    back. The steps before the first answer completes read their candidate
    logprobs from those replies: the context is then the prefix plus the
    emitted tokens, in which each viable answer's score reply already holds
    the logprob of its next token (the agreement ``LanguageModel`` states).
    This holds only for an answer whose tokens, joined by single spaces,
    spell it; a step with a candidate that no such answer carries, or any
    step after the first answer completes, asks ``next_token_distribution``.
    """
    _check_not_blank(answers)
    if len(answers) == 1:
        return [0]
    distinct = list(dict.fromkeys(answers))
    tokens = _joined_tokens(distinct, prefix, model)
    # per-answer score replies of the answers they spell, which the steps
    # before the first answer completes may read logprobs from
    spelled: dict[str, TokenScores] = {}
    if tokens is None:
        replies = {a: model.score_continuation(prefix, " " + a) for a in distinct}
        tokens = {a: s.tokens for a, s in replies.items()}
        spelled = {a: s for a, s in replies.items() if " ".join(s.tokens) == a}
    token_seqs = [tokens[a] for a in answers]
    remaining = list(range(len(answers)))
    context = prefix
    order: list[int] = []
    while remaining:
        viable = list(remaining)
        emitted = 0
        while True:
            candidates = sorted({token_seqs[i][emitted] for i in viable})
            if len(candidates) == 1:
                token = candidates[0]
            else:
                held: dict[str, float] = {}
                if not order:
                    held = {
                        token_seqs[i][emitted]: spelled[answers[i]].logprobs[emitted]
                        for i in viable
                        if answers[i] in spelled
                    }
                if len(held) == len(candidates):
                    logprobs = [held[c] for c in candidates]
                else:
                    logprobs = model.next_token_distribution(context, candidates)
                token = max(zip(candidates, logprobs), key=lambda cl: cl[1])[0]
            context += " " + token
            emitted += 1
            viable = [i for i in viable if token_seqs[i][emitted - 1] == token]
            done = [i for i in viable if len(token_seqs[i]) == emitted]
            if done:
                completed = min(done)
                order.append(completed)
                remaining.remove(completed)
                context += " |"
                break
    return order


def alphabet_permutation(answers: Sequence[str]) -> list[int]:
    """Case-insensitive lexicographic order; ties keep the original order."""
    return sorted(range(len(answers)), key=lambda i: answers[i].lower())


def random_permutation(n: int, example_id: str, seed: int) -> list[int]:
    rng = derive_rng(seed, "order_random", example_id)
    return [int(i) for i in rng.permutation(n)]


def strategy_permutation(
    strategy: str,
    answers: Sequence[str],
    *,
    prefix: str = "",
    model: LanguageModel | None = None,
    example_id: str = "",
    seed: int = 0,
) -> list[int]:
    """Permutation of answer indices under any named strategy.

    Knowledge-aware strategies require `prefix` and `model` and raise
    TooManyAnswers for sets of 20 or more answers, which adherence relies on
    to skip such predictions; `random` requires `example_id` and `seed`.
    Reverse variants return the exact reversal of their forward counterpart.
    A shot's answers are ordered through `shot_order` instead.
    """
    if strategy == "alphabet":
        return alphabet_permutation(answers)
    if strategy == "random":
        return random_permutation(len(answers), example_id, seed)
    if not reorderable(answers):
        raise TooManyAnswers(
            f"answer set of size {len(answers)} exceeds the reordering limit of "
            f"{MAX_REORDER_ANSWERS - 1}"
        )
    if strategy not in MODEL_STRATEGIES:
        raise DataError(f"unknown ordering strategy {strategy!r}")
    if model is None:
        raise DataError(f"strategy {strategy!r} needs a model backend")
    if strategy in ("greedy", "reverse_greedy"):
        order = greedy_permutation(answers, prefix, model)
    else:
        order = perplexity_permutation(answers, prefix, model)
    if strategy.startswith("reverse_"):
        order = order[::-1]
    return order


def shot_order(
    strategy: str,
    shot: Example,
    pool: Pool | None,
    model: LanguageModel | None,
    k: int,
    seed: int,
) -> tuple[str, ...]:
    """`shot`'s answers in the order a prompt shows them under `strategy`.

    A shot of 20 or more answers keeps its gold order under every strategy.
    Model strategies order against the shot's `peer_prefix` of k peers from
    `pool`, whose table holds their embeddings, so they need `pool` and
    `model`; the others need neither.
    """
    if not reorderable(shot.answers):
        return shot.answers
    prefix = peer_prefix(shot, pool, k) if strategy in MODEL_STRATEGIES else ""
    permutation = strategy_permutation(
        strategy, shot.answers, prefix=prefix, model=model, example_id=shot.id, seed=seed
    )
    return tuple(shot.answers[i] for i in permutation)

