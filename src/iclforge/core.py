"""Domain types, answer normalization, and dataset/embedding file ingestion."""

from __future__ import annotations

import functools
import hashlib
import io
import json
import logging
import math
import os
import re
import string
import sys
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

    @functools.cached_property
    def _by_id(self) -> dict[str, Example]:
        return {ex.id: ex for ex in self.examples}

    def by_id(self, example_id: str) -> Example:
        try:
            return self._by_id[example_id]
        except KeyError:
            raise DataError(f"no example with id {example_id!r}") from None


@dataclass(frozen=True)
class Prediction:
    """A parsed model generation for one evaluation example."""

    example_id: str
    answers: tuple[str, ...]
    raw_text: str

    @classmethod
    def from_generation(cls, example_id: str, raw_text: str) -> "Prediction":
        return cls(example_id, tuple(parse_answers(raw_text)), raw_text)


class EmbeddingTable:
    """Embedding vectors as the rows of one (N, d) float64 matrix, with an id -> row map.

    The matrix is read-only; `vector` returns a view of one row.
    """

    def __init__(self, rows: dict[str, int], matrix: np.ndarray) -> None:
        self.rows = rows
        self.matrix = matrix
        self.matrix.flags.writeable = False

    @classmethod
    def from_vectors(cls, vectors) -> "EmbeddingTable":
        """A table of the id -> vector mapping `vectors`, rows in its order."""
        ids = list(vectors)
        matrix = np.array([vectors[i] for i in ids], dtype=np.float64)
        return cls({vec_id: row for row, vec_id in enumerate(ids)}, matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, example_id: str) -> int:
        try:
            return self.rows[example_id]
        except KeyError:
            raise DataError(f"missing embedding for id {example_id}") from None

    def vector(self, example_id: str) -> np.ndarray:
        return self.matrix[self.row(example_id)]

    @functools.cached_property
    def max_norm(self) -> float:
        """The largest Euclidean norm of a row."""
        return math.sqrt(max(np.einsum("ij,ij->i", self.matrix, self.matrix).tolist()))

    def missing(self, ids) -> list[str]:
        return sorted(i for i in ids if i not in self.rows)

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


# kind -> (description, check); str.__instancecheck__(v) is isinstance(v, str)
_KINDS = {
    str: ("a string", str.__instancecheck__),
    # finite, and a float once converted: NaN fails every comparison
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max,
    ),
    int: ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    dict: ("an object", dict.__instancecheck__),
    list: ("a list", list.__instancecheck__),
}


class Fields:
    """A decoded JSON object and where it came from: a file and line, or a URL.

    A field that is missing or of the wrong kind raises `error` (DataError for
    a file, ProtocolError for a backend reply) naming the place and the field.
    """

    __slots__ = ("data", "source", "line", "error")

    def __init__(self, data, source, line: int | None = None, error=DataError) -> None:
        self.data, self.source, self.line, self.error = data, source, line, error
        if not isinstance(data, dict):
            raise self.fail("record is not a JSON object" if line else "not a JSON object")

    def fail(self, message: str) -> Exception:
        where = f"{self.source}: line {self.line}" if self.line else self.source
        return self.error(f"{where}: {message}")

    def get(self, name: str, kind: type, default=..., of: type | None = None, item=""):
        """Field `name` of `kind` (str; float, any finite number but a boolean; int;
        dict, returned as Fields; list, of elements of kind `of`), or `default` when
        one is given and the field is absent or null. An element error names `item`."""
        value = self.data.get(name)
        if value is None and default is not ...:
            return default
        what, check = _KINDS[kind]
        if not check(value):
            if name not in self.data:
                raise self.fail(f"missing field {name!r}")
            raise self.fail(f"{name} must be {what}, got {json.dumps(value)}")
        if of is not None:
            what, check = _KINDS[of]
            if not all(map(check, value)):
                i = next(i for i, element in enumerate(value) if not check(element))
                item = item or f"{name}[{i}]"
                raise self.fail(f"{item} must be {what}, got {json.dumps(value[i])}")
            return [float(x) for x in value] if of is float else value
        if kind is dict:
            return Fields(value, self.source, self.line, self.error)
        return float(value) if kind is float else value


def decode_json(text: str, source, line: int | None = None):
    """`text` as JSON; malformed JSON is a DataError naming `source` and `line`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"{source}: line {line}" if line else source
        raise DataError(f"{where}: malformed JSON: {exc}") from exc


def _decode(data: bytes, path: Path, first_line: int = 1) -> str:
    """`data` as UTF-8; a fault is a DataError naming its line, counted from `first_line`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # exc.start is a byte offset into `data`
        lineno = first_line + data.count(b"\n", 0, exc.start)
        raise DataError(f"{path}: line {lineno}: not valid UTF-8: {exc.reason}") from exc


def _open(path: Path, kind: str):
    try:
        return path.open("rb")
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc


def read_text(path: Path, kind: str) -> str:
    """The UTF-8 text of the `kind` file at `path`."""
    with _open(path, kind) as fh:
        return _decode(fh.read(), path)


def read_jsonl(path: Path, kind: str, header: bool = False, data: bytes | None = None):
    """Fields for each non-blank line of the JSON-lines `kind` file at `path`, or of
    its bytes `data`. With `header`, line 1 must be the format header.

    It holds one line in memory at a time, so the first bad line wins, whether it
    is not UTF-8, not JSON or not an object; the lines after it are not checked.
    """
    fh = _open(path, kind) if data is None else io.BytesIO(data)
    with fh:
        # binary lines end at b"\n" only: JSON strings may hold U+2028, U+2029 and
        # U+0085 unescaped, and a "\r" before the newline is JSON whitespace
        if header:
            first = _decode(next(fh, b""), path).rstrip("\n")
            head = decode_json(first, path, 1) if first else None
            if not isinstance(head, dict) or head.get("format") != FORMAT_VERSION:
                raise DataError(
                    f"{path}: unsupported format header {first!r}; expected "
                    f'{{"format": "{FORMAT_VERSION}"}}'
                )
        for lineno, raw in enumerate(fh, 2 if header else 1):
            line = _decode(raw, path, lineno)
            if line.strip():
                yield Fields(decode_json(line.rstrip("\n"), path, lineno), path, lineno)


def read_json_object(path: Path, kind: str) -> Fields:
    """The JSON object that fills the `kind` file at `path`."""
    return Fields(decode_json(read_text(path, kind), path), path)


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
    for record in read_jsonl(path, "dataset", header=True):
        example = Example(
            id=record.get("id", str),
            question=record.get("question", str),
            answers=tuple(record.get("answers", list, of=str, item="answer")),
            category=record.get("category", str, None),
        )
        if example.id in seen_ids:
            raise record.fail(f"duplicate id {example.id!r}")
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
    rows: dict[str, int] = {}
    vectors: list[np.ndarray] = []  # stacked into the table's matrix once the file is read
    for record in read_jsonl(path, "embedding", header=True):
        vec_id = record.get("id", str)
        row = record.get("vector", list)
        try:  # converted while the line is fresh in memory
            vector = np.array(row)
        except ValueError:  # elements of different shapes
            vector = None
        # numpy infers a float or int array only when every element is a number (or a
        # boolean among numbers); any other vector is checked element by element
        if vector is None or vector.ndim != 1 or vector.dtype.kind not in "fi":
            vector = np.array(record.get("vector", list, of=float))  # raises, bar ints > 2**63
        if not len(vector):
            raise record.fail("vector must be a non-empty list")
        if vectors and len(vector) != len(vectors[0]):
            raise record.fail(
                f"dimension mismatch (expected {len(vectors[0])}, got {len(vector)})"
            )
        if vec_id in rows:
            raise record.fail(f"duplicate id {vec_id!r}")
        rows[vec_id] = len(vectors)
        vectors.append(vector)
    if not vectors:
        raise DataError(f"{path}: no vectors")
    matrix = np.array(vectors, dtype=np.float64)
    del vectors
    # one check for the whole file; only when it fails is the file read again. A
    # boolean among numbers reads as exactly 0 or 1, so those values are re-checked
    if not np.isfinite(matrix).all() or ((matrix == 0.0) | (matrix == 1.0)).any():
        for record in read_jsonl(path, "embedding", header=True):
            record.get("vector", list, of=float)  # raises for a non-finite or boolean element
    table = EmbeddingTable(rows, matrix)
    if dataset is not None:
        table.require(dataset.ids())
    return table


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
        for vec_id in sorted(table.rows):
            record = {"id": vec_id, "vector": [float(x) for x in table.vector(vec_id)]}
            fh.write(json.dumps(record) + "\n")
