"""Builders for rigged mock fixtures used by the profiling and harness tests.

Each rig writes dataset/embedding/mock-fixture files into a directory and
returns what the test needs to drive the pipeline end to end. Generation
behavior is forced through rule chains: a rule anchored at a context suffix
emits the first token, and follow-up rules keyed on the growing suffix emit
the rest.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

from iclforge.core import Dataset, EmbeddingTable, Example, save_dataset, save_embeddings
from iclforge.lm import LanguageModel, MockModel, MockRule, TokenScores
from iclforge.ordering import random_permutation
from iclforge.prompting import ANSWER_DELIMITER, render_prompt

JUNK = "zzz"


class CountingModel(LanguageModel):
    """Backend wrapper that counts calls per op (``score``, ``next_token``,
    ``generate``), keeps every next-token context and candidate list it was
    asked for, and keeps every request as (op, *arguments) in ``requests``.

    ``delay`` seconds of sleep per call widen the window in which concurrent
    callers overlap. ``refuse_forced`` makes a next-token request with a single
    candidate raise, as a backend that rejects such requests would.
    """

    def __init__(self, inner: LanguageModel, delay: float = 0.0, refuse_forced: bool = False):
        self.inner = inner
        self.delay = delay
        self.refuse_forced = refuse_forced
        self.counts: Counter = Counter()
        self.candidate_lists: list[tuple[str, ...]] = []
        self.next_token_contexts: list[str] = []
        self.requests: list[tuple] = []
        self._lock = threading.Lock()

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def _count(self, op: str, *arguments) -> None:
        with self._lock:
            self.counts[op] += 1
            self.requests.append((op, *arguments))
        if self.delay:
            time.sleep(self.delay)

    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        self._count("score", context, continuation)
        return self.inner.score_continuation(context, continuation)

    def next_token_distribution(self, context: str, candidates: Sequence[str]) -> list[float]:
        if self.refuse_forced and len(candidates) == 1:
            raise AssertionError(f"next-token request for a forced step: {candidates}")
        self._count("next_token", context, tuple(candidates))
        with self._lock:
            self.candidate_lists.append(tuple(candidates))
            self.next_token_contexts.append(context)
        return self.inner.next_token_distribution(context, candidates)

    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        self._count("generate", prompt, tuple(stop), max_tokens)
        return self.inner.generate(prompt, stop, max_tokens)


class FoldedDelimiterModel(LanguageModel):
    """Backend whose score reply for an answer line, a continuation holding
    ``" | "``, folds each ``|`` token into the token before it, as a subword
    tokenizer might; every other request is passed through to `inner`."""

    def __init__(self, inner: LanguageModel):
        self.inner = inner

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        scores = self.inner.score_continuation(context, continuation)
        if ANSWER_DELIMITER not in continuation:
            return scores
        tokens: list[str] = []
        logprobs: list[float] = []
        for token, logprob in zip(scores.tokens, scores.logprobs):
            if token == "|" and tokens:
                tokens[-1] += " |"
                logprobs[-1] += logprob
            else:
                tokens.append(token)
                logprobs.append(logprob)
        return TokenScores(tuple(tokens), tuple(logprobs))

    def next_token_distribution(self, context: str, candidates: Sequence[str]) -> list[float]:
        return self.inner.next_token_distribution(context, candidates)

    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        return self.inner.generate(prompt, stop, max_tokens)


class UnlikelyModel(LanguageModel):
    """Backend whose score reply gives each token of a continuation in `unlikely`
    the finite log-probability `logprob`, as a remote backend may for a very
    unlikely answer; every other request is passed through to `inner`."""

    def __init__(self, inner: LanguageModel, unlikely: set[str], logprob: float = -1000.0):
        self.inner = inner
        self.unlikely = unlikely
        self.logprob = logprob

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        scores = self.inner.score_continuation(context, continuation)
        if continuation not in self.unlikely:
            return scores
        return TokenScores(scores.tokens, (self.logprob,) * scores.token_count)

    def next_token_distribution(self, context: str, candidates: Sequence[str]) -> list[float]:
        return self.inner.next_token_distribution(context, candidates)

    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        return self.inner.generate(prompt, stop, max_tokens)


def chain_rules(anchor: str, tokens: list[str], weight: float = 100.0) -> list[dict]:
    """Rules forcing `tokens` to be emitted greedily once the context ends with `anchor`."""
    rules = []
    for i, token in enumerate(tokens):
        suffix = anchor if i == 0 else anchor + " " + " ".join(tokens[:i])
        rules.append({"context_suffix": suffix, "token": token, "weight": weight})
    return rules


def with_pipes(items: list[str]) -> list[str]:
    out: list[str] = []
    for i, item in enumerate(items):
        if i:
            out.append("|")
        out.append(item)
    return out


def build_knowledge_rig(n_known: int, n_half: int, n_unknown: int):
    """An in-memory pool whose profiled f1 scores are exactly 1.0, 0.5, and 0.0.

    Every example has two single-token gold answers; the mock is rigged to
    generate both of them, one of them plus junk, or junk only.
    """
    examples = []
    vectors: dict[str, np.ndarray] = {}
    rules: list[dict] = []
    vocab = {JUNK, "|", "\n"}
    conditions = ["known"] * n_known + ["half"] * n_half + ["unknown"] * n_unknown
    total = len(conditions)
    for i, condition in enumerate(conditions):
        ex_id = f"p{i:03d}"
        question = f"what are the twin marks of item {i:03d}?"
        first, second = f"g{i:03d}x", f"g{i:03d}y"
        examples.append(
            Example(id=ex_id, question=question, answers=(first, second))
        )
        angle = 2 * np.pi * i / total
        vectors[ex_id] = np.asarray([np.cos(angle), np.sin(angle), 1.0])
        vocab.update((first, second))
        anchor = f"{question}\nAnswers:"
        if condition == "known":
            emitted = [first, "|", second, "\n"]
        elif condition == "half":
            emitted = [first, "|", JUNK, "\n"]
        else:
            emitted = [JUNK, "\n"]
        rules.extend(chain_rules(anchor, emitted))
    dataset = Dataset(split="train", examples=tuple(examples))
    table = EmbeddingTable.from_vectors(vectors)
    model = MockModel(
        sorted(vocab),
        tuple(MockRule(r["context_suffix"], r["token"], r["weight"]) for r in rules),
    )
    return dataset, table, model


def _write_mock(path: Path, vocab: set[str], rules: list[dict]) -> None:
    path.write_text(
        json.dumps({"vocab": sorted(vocab), "rules": rules}, indent=1), encoding="utf-8"
    )


def _rig_datasets(out: Path, shots, evals) -> dict:
    train = Dataset(split="train", examples=tuple(shots))
    eval_ds = Dataset(split="dev", examples=tuple(evals))
    vectors = {}
    axes = np.eye(3)
    for i, shot in enumerate(shots):
        vectors[shot.id] = axes[i] * 2.0
    for i, ev in enumerate(evals):
        vectors[ev.id] = axes[i] * 1.5
    table = EmbeddingTable.from_vectors(vectors)
    save_dataset(train, out / "train.jsonl")
    save_dataset(eval_ds, out / "eval.jsonl")
    save_embeddings(table, out / "embeddings.jsonl")
    return {
        "train": str(out / "train.jsonl"),
        "eval": str(out / "eval.jsonl"),
        "embeddings": str(out / "embeddings.jsonl"),
        "mock": str(out / "mock.json"),
    }


def build_copycat_rig(out: Path) -> dict:
    """Three one-shot prompts where generation copies the shot's answer order.

    Rule chains are keyed on the fully rendered prompt for every permutation of
    the shot's answers, so whatever ordering strategy arranged the shot, the
    generation echoes it answer for answer.
    """
    out.mkdir(parents=True, exist_ok=True)
    shots = []
    evals = []
    vocab = {"|", "\n"}
    rules: list[dict] = []
    for i in range(3):
        names = (f"mid{i}", f"arc{i}", f"tor{i}")
        shot = Example(
            id=f"s{i}", question=f"which beacons mark route {i}?", answers=names
        )
        ev = Example(
            id=f"e{i}", question=f"which beacons mark trail {i}?", answers=names
        )
        shots.append(shot)
        evals.append(ev)
        vocab.update(names)
        for perm in itertools.permutations(names):
            prompt = render_prompt([(shot.question, list(perm))], ev.question)
            rules.extend(chain_rules(prompt, with_pipes(list(perm)) + ["\n"]))
    paths = _rig_datasets(out, shots, evals)
    _write_mock(out / "mock.json", vocab, rules)
    return paths


STRATEGY_LIST_LENGTHS = {
    "alphabet": 7,
    "greedy": 6,
    "perplexity": 5,
    "random": 4,
    "reverse_perplexity": 3,
    "reverse_greedy": 2,
}

# role order below is the gold order of every rig shot: hi, md, lo
ROLE_PERMUTATIONS = {
    "perplexity": (0, 1, 2),
    "greedy": (0, 2, 1),
    "alphabet": (2, 0, 1),
    "reverse_perplexity": (2, 1, 0),
    "reverse_greedy": (1, 2, 0),
    "random": (1, 0, 2),
}


def _find_shot_id(base: str, seed: int, target: tuple[int, ...]) -> str:
    for salt in range(10_000):
        candidate = f"{base}v{salt}"
        if tuple(random_permutation(3, candidate, seed)) == target:
            return candidate
    raise AssertionError("no salt found for the target random permutation")


def build_listcont_rig(out: Path, seed: int) -> dict:
    """List-continuation rig: each displayed shot ordering triggers a
    continuation of a strategy-specific length.

    Answer weights make perplexity order hi/md/lo and a follow-up rule makes
    greedy order hi/lo/md; names make alphabet order lo/hi/md; the shot ids are
    salted so the seeded random order lands on the one remaining permutation.
    Generations then emit 7 answers for the alphabet pattern down to 2 for
    reverse greedy.
    """
    out.mkdir(parents=True, exist_ok=True)
    shots = []
    evals = []
    vocab = {"|", "\n"}
    rules: list[dict] = []
    for length in STRATEGY_LIST_LENGTHS.values():
        vocab.update(f"w{length}x{j}" for j in range(length))
    for i in range(3):
        hi, md, lo = f"mm{i}", f"zz{i}", f"aa{i}"
        names = (hi, md, lo)
        shot_id = _find_shot_id(f"s{i}", seed, ROLE_PERMUTATIONS["random"])
        shot = Example(
            id=shot_id, question=f"which flags fly over fort {i}?", answers=names
        )
        ev = Example(
            id=f"e{i}",
            question=f"which flags fly over camp {i}?",
            answers=names,
        )
        shots.append(shot)
        evals.append(ev)
        vocab.update(names)
        # perplexity control at the shot's own prefix
        rules.append({"context_suffix": f"{shot.question}\nAnswers:", "token": hi, "weight": 9.0})
        rules.append({"context_suffix": f"{shot.question}\nAnswers:", "token": md, "weight": 3.0})
        rules.append({"context_suffix": f"{shot.question}\nAnswers:", "token": lo, "weight": 1.0})
        # steer greedy to pick lo before md after the first answer
        rules.append({"context_suffix": f"{hi} |", "token": lo, "weight": 9.0})
        for strategy, role_perm in ROLE_PERMUTATIONS.items():
            displayed = [names[r] for r in role_perm]
            length = STRATEGY_LIST_LENGTHS[strategy]
            generated = with_pipes([f"w{length}x{j}" for j in range(length)]) + ["\n"]
            prompt = render_prompt([(shot.question, displayed)], ev.question)
            rules.extend(chain_rules(prompt, generated))
    paths = _rig_datasets(out, shots, evals)
    _write_mock(out / "mock.json", vocab, rules)
    paths["lengths"] = dict(STRATEGY_LIST_LENGTHS)
    return paths
