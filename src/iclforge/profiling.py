"""Knowledge profiling and construction of Unknown/Random/HalfKnown/Known sets.

A profile records how well the backing model already answers a training
example when prompted with its most similar peers: the set-level exact-match
F1 of the parsed generation, per-answer perplexities under the same prefix,
and the example's average similarity to the rest of the candidate pool.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, EmbeddingTable, Example, atomic_write_text, derive_rng, read_jsonl
from .errors import DataError
from .lm import LanguageModel
from .metrics import set_scores
from .ordering import answer_perplexities, peer_prefix
from .prompting import parse_answers
from .retrieval import Pool, similarity

log = logging.getLogger(__name__)

CONDITIONS = ("unknown", "random", "halfknown", "known")

DEFAULT_HALFKNOWN_BAND = (0.4, 0.6)
DEFAULT_SET_SIZE = 5
DEFAULT_N_SETS = 4
PROFILE_MAX_TOKENS = 256


@dataclass(frozen=True)
class KnowledgeProfile:
    example_id: str
    f1_em: float
    answer_perplexities: tuple[float, ...]
    avg_similarity: float
    model_fingerprint: str


@dataclass(frozen=True)
class ExampleSet:
    condition: str
    member_ids: tuple[str, ...]
    seed: int


def profile_example(
    example: Example, pool: Pool, model: LanguageModel, k: int = 5
) -> KnowledgeProfile:
    """Profile one example against the pool it will serve alongside.

    Its peers and its average similarity are over `Pool.others` of the
    example, the average in pool order, both read from the pool's table. A
    repeated gold answer is scored once.
    """
    others = pool.others(example)
    if not len(others):
        raise DataError("empty candidate pool")
    if k < 1:
        raise DataError("shot budget k must be at least 1")
    prefix = peer_prefix(example, pool, k)
    raw = model.generate(prefix, stop=["\n"], max_tokens=PROFILE_MAX_TOKENS)
    predicted = parse_answers(raw)
    f1_em = set_scores(predicted, example.answers, matcher="exact").f1
    perplexities = tuple(answer_perplexities(example.answers, prefix, model))
    avg_similarity = float(
        np.mean([similarity(example.id, pool.ids[i], pool.table) for i in others.tolist()])
    )
    return KnowledgeProfile(
        example_id=example.id,
        f1_em=f1_em,
        answer_perplexities=perplexities,
        avg_similarity=avg_similarity,
        model_fingerprint=model.fingerprint,
    )


def profile_dataset(
    dataset: Dataset,
    table: EmbeddingTable,
    model: LanguageModel,
    k: int = 5,
    store_path: str | Path | None = None,
) -> list[KnowledgeProfile]:
    """Profile every shot-safe example against the others, then replace the store.

    Each profile depends on the whole pool, so every call computes all of
    them; a rerun gets its backend results from a caching model (``--cache-dir``).
    """
    pool = Pool.shots(dataset, table)
    profiles = [profile_example(example, pool, model, k=k) for example in pool.examples]
    if store_path is not None:
        save_profiles(profiles, store_path)
    return profiles


def save_profiles(profiles: list[KnowledgeProfile], path: str | Path) -> None:
    """Replace the store at `path` atomically, one line per profile; a crash never tears it."""
    lines = [json.dumps(vars(p), sort_keys=True) + "\n" for p in profiles]
    atomic_write_text(Path(path), "".join(lines))


def load_profiles(path: str | Path) -> list[KnowledgeProfile]:
    return [
        KnowledgeProfile(
            example_id=record.get("example_id", str),
            f1_em=record.get("f1_em", float),
            answer_perplexities=tuple(record.get("answer_perplexities", list, of=float)),
            avg_similarity=record.get("avg_similarity", float),
            model_fingerprint=record.get("model_fingerprint", str),
        )
        for record in read_jsonl(Path(path), "profile store")
    ]


def median_similarity_filter(profiles: list[KnowledgeProfile], n: int) -> list[str]:
    """Ids of the n candidates nearest the median average-similarity.

    Half are taken from strictly below the median and half from strictly above
    (the extra one from below when n is odd); candidates exactly at the median
    may fill either side. Output is ordered closest-to-median first.
    """
    if n < 1:
        raise DataError("n must be positive")
    if n > len(profiles):
        raise DataError(f"requested {n} candidates from {len(profiles)} profiles")
    median = float(np.median([p.avg_similarity for p in profiles]))

    def closeness(p: KnowledgeProfile) -> tuple[float, str]:
        return (abs(p.avg_similarity - median), p.example_id)

    below = sorted((p for p in profiles if p.avg_similarity < median), key=closeness)
    above = sorted((p for p in profiles if p.avg_similarity > median), key=closeness)
    at_median = sorted((p for p in profiles if p.avg_similarity == median), key=closeness)

    need_below = n - n // 2
    need_above = n // 2
    take_below = below[:need_below]
    short = need_below - len(take_below)
    take_below += at_median[:short]
    at_median = at_median[short:] if short else at_median
    take_above = above[:need_above]
    short = need_above - len(take_above)
    take_above += at_median[:short]
    if len(take_below) < need_below or len(take_above) < need_above:
        raise DataError(
            f"cannot take {need_below} below and {need_above} above the median: "
            f"{len(below)} below, {len(above)} above, {len(at_median)} at the median"
        )
    return [p.example_id for p in sorted(take_below + take_above, key=closeness)]


@dataclass(frozen=True)
class SetBuildResult:
    sets: tuple[ExampleSet, ...]
    eligible_count: int
    fallback_used: bool = False
    fallback_threshold: float | None = None


def build_sets(
    profiles: list[KnowledgeProfile],
    condition: str,
    n_sets: int = DEFAULT_N_SETS,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int = 0,
    halfknown_band: tuple[float, float] = DEFAULT_HALFKNOWN_BAND,
) -> SetBuildResult:
    """Sample disjoint in-context example sets for one knowledge condition.

    Unknown members scored exactly 0, known members exactly 1 (falling back to
    the highest scorers when too few reach 1), halfknown members fall inside
    `halfknown_band`, and random draws from all candidates.
    """
    if condition not in CONDITIONS:
        raise DataError(f"unknown condition {condition!r}")
    if n_sets < 1 or set_size < 1:
        raise DataError("n_sets and set_size must be positive")
    need = n_sets * set_size
    fallback_used = False
    fallback_threshold: float | None = None
    if condition == "unknown":
        eligible = [p for p in profiles if p.f1_em == 0.0]
    elif condition == "known":
        eligible = [p for p in profiles if p.f1_em == 1.0]
        if len(eligible) < need:
            if len(profiles) < need:
                raise DataError(
                    f"need {need} candidates but only {len(profiles)} profiled"
                )
            ranked = sorted(profiles, key=lambda p: (-p.f1_em, p.example_id))
            eligible = ranked[:need]
            fallback_used = True
            fallback_threshold = min(p.f1_em for p in eligible)
            log.warning(
                "known condition fell back to the top %d scorers (lowest f1_em %.3f)",
                need,
                fallback_threshold,
            )
    elif condition == "halfknown":
        lo, hi = halfknown_band
        eligible = [p for p in profiles if lo <= p.f1_em <= hi]
    else:
        eligible = list(profiles)
    if len(eligible) < need:
        raise DataError(
            f"condition {condition!r} has {len(eligible)} qualifying candidates; "
            f"{need} required for {n_sets} sets of {set_size}"
        )
    ordered = sorted(eligible, key=lambda p: p.example_id)
    rng = derive_rng(seed, "build_sets", condition)
    shuffled = [ordered[int(i)] for i in rng.permutation(len(ordered))]
    sets = tuple(
        ExampleSet(
            condition=condition,
            member_ids=tuple(
                p.example_id for p in shuffled[i * set_size : (i + 1) * set_size]
            ),
            seed=seed,
        )
        for i in range(n_sets)
    )
    return SetBuildResult(
        sets=sets,
        eligible_count=len(eligible),
        fallback_used=fallback_used,
        fallback_threshold=fallback_threshold,
    )


def save_sets(sets: tuple[ExampleSet, ...] | list[ExampleSet], path: str | Path) -> None:
    """Replace the set file at `path` atomically, one line per set; a crash never tears it."""
    lines = [json.dumps(vars(s), sort_keys=True) + "\n" for s in sets]
    atomic_write_text(Path(path), "".join(lines))


def load_sets(path: str | Path) -> list[ExampleSet]:
    sets = []
    for record in read_jsonl(Path(path), "set"):
        condition = record.get("condition", str)
        if condition not in CONDITIONS:
            choices = ", ".join(CONDITIONS)
            raise record.fail(f"condition must be one of {choices}, got {condition!r}")
        member_ids = tuple(record.get("member_ids", list, of=str))
        if not member_ids:
            raise record.fail("member_ids is empty")
        if len(set(member_ids)) < len(member_ids):
            raise record.fail(f"member_ids repeats an id: {list(member_ids)!r}")
        sets.append(ExampleSet(condition, member_ids, record.get("seed", int)))
    return sets
