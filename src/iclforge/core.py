"""Domain types, answer normalization, and dataset/embedding file ingestion."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import string
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .prompting import ANSWER_DELIMITER, parse_answers

log = logging.getLogger(__name__)

FORMAT_VERSION = "icl-forge/v1"

SPLITS = ("train", "dev", "test")


def stable_hash(text: str) -> int:
    """Platform-independent 64-bit hash, used to derive per-item RNG streams."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def atomic_write_text(path: Path, text: str) -> None:
    """Write `text` to `path` through a temp file in the same directory.

    Readers see the old content or the new, never a torn file; a failed write
    removes its temp file and leaves `path` untouched.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def derive_rng(seed: int, *parts: str) -> np.random.Generator:
    """Deterministic generator for (seed, label...) so parallel runs match serial ones."""
    material = str(seed) + "\x1f" + "\x1f".join(parts)
    return np.random.default_rng(stable_hash(material))


@dataclass(frozen=True)
class Example:
    """One question with its gold answer set."""

    id: str
    question: str
    answers: tuple[str, ...]
    category: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("example id must be non-empty")
        if not self.answers:
            raise DataError(f"example {self.id!r} has an empty answer list")
        for answer in self.answers:
            if not answer.strip():
                raise DataError(f"example {self.id!r} has an empty answer")

    @property
    def prompt_safe(self) -> bool:
        """Whether every answer can be rendered unambiguously in a prompt."""
        return all(
            ANSWER_DELIMITER not in a and "\n" not in a for a in self.answers
        )


@dataclass(frozen=True)
class Dataset:
    split: str
    examples: tuple[Example, ...]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}")
        seen: set[str] = set()
        for ex in self.examples:
            if ex.id in seen:
                raise DataError(f"duplicate example id {ex.id!r}")
            seen.add(ex.id)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def ids(self) -> list[str]:
        return [ex.id for ex in self.examples]

    def by_id(self, example_id: str) -> Example:
        for ex in self.examples:
            if ex.id == example_id:
                return ex
        raise DataError(f"no example with id {example_id!r}")


@dataclass(frozen=True)
class Prediction:
    """A parsed model generation for one evaluation example."""

    example_id: str
    answers: tuple[str, ...]
    raw_text: str

    @classmethod
    def from_generation(cls, example_id: str, raw_text: str) -> "Prediction":
        return cls(example_id, tuple(parse_answers(raw_text)), raw_text)


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]

    def vector(self, example_id: str) -> np.ndarray:
        try:
            return self.vectors[example_id]
        except KeyError:
            raise DataError(f"missing embedding for id {example_id}") from None

    def missing(self, ids) -> list[str]:
        return sorted(i for i in ids if i not in self.vectors)

    def require(self, ids) -> None:
        missing = self.missing(ids)
        if missing:
            raise DataError(
                "missing embedding for id " + ", ".join(missing)
            )


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    out = text.lower().translate(_PUNCT_TABLE)
    out = _ARTICLE_RE.sub(" ", out)
    return " ".join(out.split())


def _read_versioned_records(path: Path, kind: str):
    """(line number, JSON object) for each non-blank line after the format header."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.start is a byte offset into the whole file
        lineno = path.read_bytes().count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {lineno}: not valid UTF-8: {exc.reason}") from exc
    if not raw:
        raise DataError(f"{kind} file {path} is empty (missing format header)")
    # "\n" only: JSON strings may hold U+2028, U+2029 and U+0085 unescaped
    lines = raw.split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line 1: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format header {lines[0]!r}; expected "
            f'{{"format": "{FORMAT_VERSION}"}}'
        )
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: malformed record: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}: line {lineno}: record is not a JSON object")
        yield lineno, record


def _string(value, field: str, path: Path, lineno: int) -> str:
    """`value` if it is a JSON string; a field of any other type is a data error."""
    if not isinstance(value, str):
        raise DataError(
            f"{path}: line {lineno}: {field} must be a string, got {json.dumps(value)}"
        )
    return value


def load_dataset(path: str | Path, split: str = "train") -> Dataset:
    """Load a line-delimited dataset file, enforcing all Dataset invariants.

    Train splits drop repeated question texts, keeping the first occurrence.
    """
    path = Path(path)
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}")
    examples: list[Example] = []
    seen_ids: set[str] = set()
    seen_questions: set[str] = set()
    for lineno, record in _read_versioned_records(path, "dataset"):
        if not isinstance(record.get("answers", []), list):
            raise DataError(f"{path}: line {lineno}: answers must be a list")
        category = record.get("category")
        try:
            example = Example(
                id=_string(record["id"], "id", path, lineno),
                question=_string(record["question"], "question", path, lineno),
                answers=tuple(_string(a, "answer", path, lineno) for a in record["answers"]),
                category=None if category is None else _string(category, "category", path, lineno),
            )
        except KeyError as exc:
            raise DataError(f"{path}: line {lineno}: missing field {exc}") from exc
        if example.id in seen_ids:
            raise DataError(f"{path}: line {lineno}: duplicate id {example.id!r}")
        seen_ids.add(example.id)
        if split == "train":
            if example.question in seen_questions:
                continue
            seen_questions.add(example.question)
        if not example.prompt_safe:
            log.warning(
                "example %s has answers containing %r or newlines; "
                "it will be excluded from shot duty",
                example.id,
                ANSWER_DELIMITER,
            )
        examples.append(example)
    if not examples:
        raise DataError(f"{path}: no examples")
    return Dataset(split=split, examples=tuple(examples))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
        for ex in dataset:
            record = {"id": ex.id, "question": ex.question, "answers": list(ex.answers)}
            if ex.category is not None:
                record["category"] = ex.category
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_embeddings(path: str | Path, dataset: Dataset | None = None) -> EmbeddingTable:
    """Load an embedding file and check it covers every id of `dataset`."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, record in _read_versioned_records(path, "embedding"):
        try:
            vec_id = _string(record["id"], "id", path, lineno)
            vector = np.asarray(record["vector"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: line {lineno}: bad embedding record: {exc}") from exc
        if vector.ndim != 1 or vector.size == 0:
            raise DataError(f"{path}: line {lineno}: vector must be a non-empty list")
        if dim is None:
            dim = int(vector.size)
        elif vector.size != dim:
            raise DataError(
                f"{path}: line {lineno}: dimension mismatch "
                f"(expected {dim}, got {vector.size})"
            )
        if vec_id in vectors:
            raise DataError(f"{path}: line {lineno}: duplicate id {vec_id!r}")
        vectors[vec_id] = vector
    if dim is None:
        raise DataError(f"{path}: no vectors")
    table = EmbeddingTable(dim=dim, vectors=vectors)
    if dataset is not None:
        table.require(dataset.ids())
    return table


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
        for vec_id in sorted(table.vectors):
            record = {"id": vec_id, "vector": [float(x) for x in table.vectors[vec_id]]}
            fh.write(json.dumps(record) + "\n")
