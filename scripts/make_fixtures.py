"""Regenerate the bundled fixtures: the toy datasets, their embeddings, and
the mock model fixture files. Deterministic; safe to rerun.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from iclforge.core import Dataset, EmbeddingTable, Example, save_dataset, save_embeddings  # noqa: E402

FIXTURES = REPO / "fixtures"

TRAIN_EXAMPLES = [
    ("t1", "which rivers flow through parkland?", ["meadow river", "stone river"], "places"),
    ("t2", "which towers stand in coastal city?", ["north tower", "harbor tower", "signal tower"], "places"),
    ("t3", "who painted the murals of old hall?", ["mira kest", "jon pell"], "people"),
    ("t4", "who founded the island observatory?", ["ada lenz"], "people"),
    ("t5", "which novels did rhea moss write?", ["the glass orchard", "winter letters", "a quiet harbor"], "works"),
    ("t6", "which songs appear on the album seafoam?", ["tidelines", "driftwood", "salt air"], "works"),
]

EVAL_EXAMPLES = [
    ("e1", "which rivers flow through stonevale?", ["stone river", "clear river"], "places"),
    ("e2", "who painted the coastal frescoes?", ["mira kest", "tomas reed"], "people"),
    ("e3", "which novels did arlen voss write?", ["the glass orchard", "ember days"], "works"),
]

VECTORS = {
    "t1": [1.00, 0.10, 0.00, 0.05],
    "t2": [0.90, 0.20, 0.05, 0.00],
    "t3": [0.10, 1.00, 0.00, 0.10],
    "t4": [0.00, 0.90, 0.10, 0.00],
    "t5": [0.00, 0.10, 1.00, 0.10],
    "t6": [0.10, 0.00, 0.90, 0.00],
    "e1": [0.95, 0.15, 0.00, 0.10],
    "e2": [0.05, 0.95, 0.05, 0.05],
    "e3": [0.05, 0.05, 0.95, 0.05],
}

# target generations for the toy mock, one per eval question
TOY_GENERATIONS = {
    "which rivers flow through stonevale?": ["stone", "river", "|", "silver", "river", "\n"],
    "who painted the coastal frescoes?": ["mira", "kest", "\n"],
    "which novels did arlen voss write?": ["ember", "days", "|", "the", "glass", "orchard", "\n"],
}


def chain_rules(anchor: str, tokens: list[str], weight: float = 100.0) -> list[dict]:
    """Rules that force `tokens` to be emitted greedily after `anchor`."""
    rules = []
    for i, token in enumerate(tokens):
        suffix = anchor if i == 0 else anchor + " " + " ".join(tokens[:i])
        rules.append({"context_suffix": suffix, "token": token, "weight": weight})
    return rules


def build_toy_mock() -> dict:
    rules: list[dict] = []
    vocab: set[str] = {"\n", "|"}
    for question, tokens in TOY_GENERATIONS.items():
        anchor = f"{question}\nAnswers:"
        rules.extend(chain_rules(anchor, tokens))
        vocab.update(tokens)
    return {"vocab": sorted(vocab), "rules": rules}


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)

    train = Dataset(
        split="train",
        examples=tuple(
            Example(id=i, question=q, answers=tuple(a), category=c)
            for i, q, a, c in TRAIN_EXAMPLES
        ),
    )
    eval_ds = Dataset(
        split="dev",
        examples=tuple(
            Example(id=i, question=q, answers=tuple(a), category=c)
            for i, q, a, c in EVAL_EXAMPLES
        ),
    )
    save_dataset(train, FIXTURES / "toy_train.jsonl")
    save_dataset(eval_ds, FIXTURES / "toy_eval.jsonl")

    table = EmbeddingTable.from_vectors(VECTORS)
    save_embeddings(table, FIXTURES / "toy_embeddings.jsonl")

    (FIXTURES / "mock_uniform.json").write_text(
        json.dumps({"vocab": ["a", "b", "c", "d", "e"], "rules": []}, indent=2) + "\n",
        encoding="utf-8",
    )

    mock_f1 = {
        "vocab": ["new", "york", "jersey", "boston", "|", "\n"],
        "rules": [
            {"context_suffix": "", "token": "boston", "weight": 5.0},
            {"context_suffix": "", "token": "new", "weight": 3.0},
            {"context_suffix": "new", "token": "jersey", "weight": 4.0},
            {"context_suffix": "new", "token": "york", "weight": 1.0},
        ],
    }
    (FIXTURES / "mock_f1.json").write_text(
        json.dumps(mock_f1, indent=2) + "\n", encoding="utf-8"
    )

    (FIXTURES / "mock_toy.json").write_text(
        json.dumps(build_toy_mock(), indent=2) + "\n", encoding="utf-8"
    )

    for name in sorted(p.name for p in FIXTURES.iterdir()):
        print(f"wrote fixtures/{name}")


if __name__ == "__main__":
    main()
