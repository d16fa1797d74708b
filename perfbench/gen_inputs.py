"""Seeded synthetic inputs for the iclforge benchmark.

For one workload and one seed this writes, into an output directory:

- ``train.jsonl`` and ``eval.jsonl``: datasets in the ``icl-forge/v1`` format,
  each example with 1-6 answers of 1-3 words from a 200-word vocabulary;
- ``embeddings.jsonl``: 64-dimensional unit vectors drawn around 40 topic
  centres, so neighbouring queries share shots;
- ``mock.json``: a mock-model fixture (vocabulary plus rules);
- ``mock_unknown.json`` (``knowledge_sets`` only): the same fixture with the
  eval questions' planned answers moved by one class (see below);
- ``properties.json``: the input properties the workload depends on.

The mock has three kinds of rules. Bigram rules (suffix ``" <word>"``) make
scoring and ordering depend on the answers. Chain rules anchored at
``"Question: <q>\\nAnswers:"`` force a planned generation that ends in
``\\n``: the gold answers (known), half of them plus as many wrong ones
(halfknown), or wrong answers only (unknown). Walk questions get a single
anchored start word and then follow the bigram graph: a walk that reaches a
word whose successor is ``\\n`` stops, and a capped one enters the
``c1 c2 c3 |`` cycle and runs to the 256-token cap. Chains are written for the
eval questions of every workload and, where a workload profiles its train
set, for the train questions too, so all four knowledge conditions have
candidates.

The mock ignores everything before the query block, so the shots cannot
change a prediction. ``knowledge_sets`` therefore evaluates its unknown set
against ``mock_unknown.json``, where each eval chain moves by one class
(known -> halfknown, or unknown for a single answer; halfknown -> known;
unknown -> other wrong answers). Some questions then score better and some
worse, so ``compare_runs(known, unknown)`` sees paired differences of both
signs and p-values between 0 and 1.

The traffic mix is assumed, not measured: no public statistic for it was at
hand. The choices are the plainest ones that meet the workloads' needs:
answer counts uniform over 1-6 (2-6 for halfknown, which needs two), the
four stopping classes in equal shares, and exactly one capped question per
planned split, the fewest for which some generations reach the cap.

Run ``python3 perfbench/gen_inputs.py --workload knowledge_sets --seed 0
--out DIR`` to write one set by hand. The inputs depend on nothing but the
workload name and the seed.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMAT_HEADER = {"format": "icl-forge/v1"}
DIM = 64
VOCAB_SIZE = 200
N_TOPICS = 40
TOPIC_NOISE = 0.8
GENERATION_CAP = 256  # RunConfig.max_tokens default and profiling.PROFILE_MAX_TOKENS
CHAIN_WEIGHT = 100.0
TERMINAL_SHARE = 0.3

# Planned generation per question, in equal shares (an assumption, see
# above). "walk" stops at a terminal word; the one "capped" question of a
# split enters the cycle and runs to the cap; halfknown needs two or more
# gold answers.
STOPPING_CLASSES = {"known": 1.0, "halfknown": 1.0, "unknown": 1.0, "walk": 1.0}
CAPPED_PER_SPLIT = 1
ANSWER_COUNTS = {n: 1.0 for n in range(1, 7)}
ANSWER_COUNTS_TWO_UP = {n: 1.0 for n in range(2, 7)}
# walk questions start where the walk stops after this many tokens
WALK_TOKENS = (3, 6)
# The train pool's embeddings depend on the workload alone, so that k-means
# over the pool, whose iteration count depends on the points, costs the same
# for every seed; the eval vectors, texts, answers and mock vary with it.
GEOMETRY_SEED = 20231116


@dataclass(frozen=True)
class Shape:
    index: int
    train: int
    eval: int
    profiled: bool  # train questions get planned generations too
    unknown_mock: bool = False  # also write mock_unknown.json


SHAPES = {
    "eval_similar_greedy": Shape(0, 2000, 100, False),
    "knowledge_sets": Shape(1, 400, 100, True, True),
    "remote_cached_rerun": Shape(2, 500, 100, False),
}


def make_vocab(rng: np.random.Generator) -> list[str]:
    consonants = list("bdfgklmnprstvz")
    vowels = list("aeiou")
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            str(rng.choice(consonants)) + str(rng.choice(vowels)) for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class BigramGraph:
    """Argmax successor of every word: a cycle through ``|``, terminals, and a DAG."""

    def __init__(self, rng: np.random.Generator, words: list[str]) -> None:
        order = [words[int(i)] for i in rng.permutation(len(words))]
        self.cycle = order[:3]
        n_terminal = int(TERMINAL_SHARE * len(words))
        terminals = order[3 : 3 + n_terminal]
        others = order[3 + n_terminal :]
        self.succ: dict[str, str] = {
            self.cycle[0]: self.cycle[1],
            self.cycle[1]: self.cycle[2],
            self.cycle[2]: "|",
            "|": self.cycle[0],
        }
        for word in terminals:
            self.succ[word] = "\n"
        for i, word in enumerate(others):
            targets = terminals + self.cycle + others[:i]
            self.succ[word] = targets[int(rng.integers(len(targets)))]
        self.words = words

    def walk(self, start: str) -> tuple[int, bool]:
        """Tokens generated from `start` (stop token included) and whether it caps."""
        token = start
        for step in range(1, GENERATION_CAP + 1):
            if token == "\n":
                return step, False
            token = self.succ[token]
        return GENERATION_CAP, True

    def rules(self, rng: np.random.Generator) -> list[dict]:
        out = []
        for word in self.words + ["|"]:
            out.append(
                {"context_suffix": " " + word, "token": self.succ[word],
                 "weight": float(rng.integers(5, 10))}
            )
            if rng.random() < 0.5:
                alt = self.words[int(rng.integers(len(self.words)))]
                if alt != self.succ[word]:
                    out.append(
                        {"context_suffix": " " + word, "token": alt,
                         "weight": float(rng.integers(1, 5))}
                    )
        return out


def _answers(rng: np.random.Generator, words: list[str], n: int) -> list[str]:
    answers: list[str] = []
    while len(answers) < n:
        size = int(rng.integers(1, 4))
        answer = " ".join(words[int(i)] for i in rng.choice(len(words), size, replace=False))
        if answer not in answers:
            answers.append(answer)
    return answers


def _wrong(rng: np.random.Generator, words: list[str], gold: list[str], n: int) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        (candidate,) = _answers(rng, words, 1)
        if candidate not in gold and candidate not in out:
            out.append(candidate)
    return out


def _chain_tokens(answers: list[str]) -> list[str]:
    tokens: list[str] = []
    for i, answer in enumerate(answers):
        if i:
            tokens.append("|")
        tokens.extend(answer.split(" "))
    return tokens + ["\n"]


def _chain_rules(anchor: str, tokens: list[str]) -> list[dict]:
    return [
        {
            "context_suffix": anchor if i == 0 else anchor + " " + " ".join(tokens[:i]),
            "token": token,
            "weight": CHAIN_WEIGHT,
        }
        for i, token in enumerate(tokens)
    ]


def _exact(rng: np.random.Generator, shares: dict, n: int, extra: tuple = ()) -> list:
    """`n` keys: `extra`, then the rest in exact proportion to `shares`
    (largest remainder); shuffled."""
    keys = list(shares)
    weights = np.array([shares[k] for k in keys], dtype=float)
    quotas = weights / weights.sum() * (n - len(extra))
    counts = np.floor(quotas).astype(int)
    for i in np.argsort(-(quotas - counts), kind="stable")[: n - len(extra) - counts.sum()]:
        counts[i] += 1
    out = list(extra) + [k for k, c in zip(keys, counts) for _ in range(c)]
    return [out[int(i)] for i in rng.permutation(n)]


def _target(rng: np.random.Generator, words: list[str], gold: list[str], kind: str) -> list[str]:
    """The answers a chain plans for a question of `kind`."""
    if kind == "known":
        return list(gold)
    if kind == "halfknown":
        half = len(gold) // 2
        return gold[:half] + _wrong(rng, words, gold, half)
    return _wrong(rng, words, gold, int(rng.integers(1, 3)))


def _shifted(kind: str, n_answers: int) -> str:
    """The class a question's chain moves to in mock_unknown.json."""
    if kind == "halfknown":
        return "known"
    if kind == "known" and n_answers >= 2:
        return "halfknown"
    return "unknown"


def generate(workload: str, seed: int, out_dir: str | Path) -> dict:
    """Write the inputs of `workload` for `seed` into `out_dir`; return its properties."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([int(seed), shape.index])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    words = make_vocab(rng)
    graph = BigramGraph(rng, words)
    cap_starts = [w for w in words if graph.walk(w)[1]]
    stop_starts = [w for w in words if WALK_TOKENS[0] <= graph.walk(w)[0] <= WALK_TOKENS[1]]
    rules = graph.rules(rng)
    for word in words[:4]:
        rules.append({"context_suffix": "\nAnswers:", "token": word,
                      "weight": float(rng.integers(1, 10))})

    geometry = np.random.default_rng([GEOMETRY_SEED, shape.index])
    centers = geometry.standard_normal((N_TOPICS, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    placement = {
        "train": (geometry.permutation(np.arange(shape.train) % N_TOPICS),
                  geometry.standard_normal((shape.train, DIM))),
        "eval": (rng.permutation(np.arange(shape.eval) % N_TOPICS),
                 rng.standard_normal((shape.eval, DIM))),
    }

    generation_tokens: list[int] = []
    generation_caps = 0
    # chains of the eval questions: of mock.json, and of mock_unknown.json
    eval_rules: list[dict] = []
    unknown_rules: list[dict] = []
    datasets: dict[str, list[dict]] = {}
    vectors: list[tuple[str, np.ndarray]] = []
    for split, count, prefix, planned in (
        ("train", shape.train, "t", shape.profiled),
        ("eval", shape.eval, "e", True),
    ):
        records = []
        topics, noise = placement[split]
        kinds = _exact(rng, STOPPING_CLASSES, count,
                       ("capped",) * CAPPED_PER_SPLIT if planned else ())
        answer_counts = {
            kind: _exact(rng, ANSWER_COUNTS_TWO_UP if kind == "halfknown" else ANSWER_COUNTS,
                         kinds.count(kind))
            for kind in sorted(set(kinds))
        }
        for i in range(count):
            ex_id = f"{prefix}{i:04d}"
            topic = int(topics[i])
            q_words = [words[int(j)] for j in rng.choice(len(words), 3, replace=False)]
            question = f"which {q_words[0]} {q_words[1]} did {q_words[2]} {ex_id} know?"
            kind = kinds[i]
            n_answers = answer_counts[kind].pop()
            gold = _answers(rng, words, n_answers)
            records.append({"id": ex_id, "question": question, "answers": gold,
                            "category": f"topic{topic:02d}"})
            vector = centers[topic] + TOPIC_NOISE * noise[i] / np.sqrt(DIM)
            vectors.append((ex_id, vector / np.linalg.norm(vector)))
            if not planned:
                continue
            anchor = f"Question: {question}\nAnswers:"
            if kind in ("walk", "capped"):
                starts = cap_starts if kind == "capped" else stop_starts
                start = starts[int(rng.integers(len(starts)))]
                rules.append({"context_suffix": anchor, "token": start, "weight": CHAIN_WEIGHT})
                n_tokens, capped = graph.walk(start)
            else:
                tokens = _chain_tokens(_target(rng, words, gold, kind))
                (eval_rules if split == "eval" else rules).extend(_chain_rules(anchor, tokens))
                n_tokens, capped = len(tokens), False
                if shape.unknown_mock and split == "eval":
                    shifted = _target(rng, words, gold, _shifted(kind, n_answers))
                    unknown_rules.extend(_chain_rules(anchor, _chain_tokens(shifted)))
            generation_tokens.append(n_tokens)
            generation_caps += int(capped)
        datasets[split] = records

    for split, records in datasets.items():
        with (out / f"{split}.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(FORMAT_HEADER) + "\n")
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    with (out / "embeddings.jsonl").open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(FORMAT_HEADER) + "\n")
        for ex_id, vector in sorted(vectors, key=lambda pair: pair[0]):
            fh.write(json.dumps({"id": ex_id, "vector": [float(x) for x in vector]}) + "\n")
    fixtures = {"mock.json": rules + eval_rules}
    if shape.unknown_mock:
        fixtures["mock_unknown.json"] = rules + unknown_rules
    for name, fixture_rules in fixtures.items():
        mock = {"vocab": words + ["|", "\n"], "rules": fixture_rules}
        (out / name).write_text(json.dumps(mock, ensure_ascii=False), encoding="utf-8")

    properties = {
        "workload": workload,
        "seed": int(seed),
        "pool_size": shape.train,
        "eval_size": shape.eval,
        "dim": DIM,
        "vocab_size": VOCAB_SIZE,
        "rule_count": len(rules) + len(eval_rules),
        "planned_generations": len(generation_tokens),
        "tokens_per_generation": float(np.mean(generation_tokens)),
        "cap_hit_share": generation_caps / len(generation_tokens),
    }
    (out / "properties.json").write_text(
        json.dumps(properties, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return properties


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out), sort_keys=True))


if __name__ == "__main__":
    main()
