"""Domain types, answer normalization, and dataset/embedding file ingestion."""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import logging
import math
import os
import pickle
import re
import signal
import string
import struct
import sys
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn

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


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, or each of its pieces in turn, to `path` through a temp file in
    the same directory, made with the mode open() gives (mkstemp would give 0o600).

    Readers see the old content or the new, never a torn file; a failed write
    removes its temp file and leaves `path` untouched.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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
    """Embedding vectors as the rows of one C-contiguous (N, d) float64 matrix, with
    an id -> row map.

    The matrix is read-only; `vector` returns a view of one row. `load_embeddings`
    makes it a view of the one buffer it read the file into, not a copy.
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

    def require(self, ids) -> None:
        missing = sorted(i for i in ids if i not in self.rows)
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


_FLOAT_MAX = sys.float_info.max

# kind -> (description, check); str.__instancecheck__(v) is isinstance(v, str)
_KINDS = {
    str: ("a string", str.__instancecheck__),
    # finite, and a float once converted: NaN fails every comparison
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= _FLOAT_MAX,
    ),
    int: ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    dict: ("an object", dict.__instancecheck__),
    list: ("a list", list.__instancecheck__),
}
# kinds whose values, of exactly that type, are returned as they are
_AS_IS = {str, int, list}


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
        if type(value) is kind and kind in _AS_IS and of is None:
            return value
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


# the C scanner json.loads wraps: (value, end) of the JSON value at an index
_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def decode_json(text: str, source, line: int | None = None, error=DataError):
    """`text`, line `line` of `source` with its newline if any, or without `line`
    the whole of `source`, as JSON. Malformed JSON, a number int() refuses, JSON
    nested too deeply or a lone surrogate escape raises `error` (DataError for a
    file, ProtocolError for a backend reply) naming `source` and `line`.

    A value followed by JSON whitespace alone is kept from one scan; any other
    text goes to json.loads, so values and messages are json.loads' own.
    """
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):  # no value at 0, a bad one, or a deep one
        end = None
    try:
        if end is None or (end != len(text) and text[end:].strip(_JSON_SPACE)):
            # a line's newline would move the position a message names
            value = json.loads(text.rstrip("\n") if line else text)
        # text read as UTF-8 holds no surrogate, so only a \u escape can make a
        # lone one, which UTF-8 cannot encode; a line without a backslash (most
        # lines; every embedding line) costs one memchr, ten times faster on a
        # long line than the two-character test
        if "\\" in text and "\\u" in text:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    # a JSONDecodeError, an int of too many digits, nesting deeper than the
    # recursion limit, or a lone surrogate (a UnicodeEncodeError)
    except (ValueError, RecursionError) as exc:
        where = f"{source}: line {line}" if line else source
        if isinstance(exc, UnicodeEncodeError):
            escape = f"\\u{ord(exc.object[exc.start]):04x}"
            raise error(f"{where}: lone surrogate escape {escape} is not UTF-8 text") from exc
        raise error(f"{where}: malformed JSON: {exc}") from exc
    return value


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


def _lines_before(fh, end: int):
    """The lines of the binary file `fh` that begin before byte `end`."""
    position = fh.tell()
    for raw in fh:
        if position >= end:
            return
        yield raw
        position += len(raw)


def read_jsonl(
    path: Path,
    kind: str,
    header: bool = False,
    data: bytes | None = None,
    texts: bool = False,
    start: int = 0,
    end: int | None = None,
):
    """Fields for each non-blank line of the JSON-lines `kind` file at `path`, or of
    its bytes `data`. With `header`, line 1 must be the format header. With
    `texts`, each item is a pair of the line's text and its Fields.

    With `end`, only the lines that begin before byte `end` are read. A `start`
    past 0 must be where a line after the header begins; reading starts there,
    with that line numbered 1, as the lines before it are not counted.

    It holds one line in memory at a time, so the first bad line wins, whether it
    is not UTF-8, not JSON or not an object; the lines after it are not checked.
    """
    fh = _open(path, kind) if data is None else io.BytesIO(data)
    with fh:
        # binary lines end at b"\n" only: JSON strings may hold U+2028, U+2029 and
        # U+0085 unescaped, and a "\r" before the newline is JSON whitespace
        first_line = 1
        if start:
            fh.seek(start)
        elif header:
            first = _decode(next(fh, b""), path).rstrip("\n")
            head = decode_json(first, path, 1) if first else None
            if not isinstance(head, dict) or head.get("format") != FORMAT_VERSION:
                raise DataError(
                    f"{path}: unsupported format header {first!r}; expected "
                    f'{{"format": "{FORMAT_VERSION}"}}'
                )
            first_line = 2
        lines = fh if end is None else _lines_before(fh, end)
        for lineno, raw in enumerate(lines, first_line):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                line = _decode(raw, path, lineno)  # raises, naming the fault
            # a line is never empty, so isspace() is True just where strip() would
            # leave nothing, and it stops at the first other character, copying nothing
            if not line.isspace():
                fields = Fields(decode_json(line, path, lineno), path, lineno)
                yield (line, fields) if texts else fields


def read_json_object(path: Path, kind: str) -> Fields:
    """The JSON object that fills the `kind` file at `path`."""
    return Fields(decode_json(read_text(path, kind), path), path)


def encode_json(record: dict, target, line: int | None = None, **options) -> str:
    """The JSON object `record` as json.dumps writes it with `options`, as line `line`
    of the file `target` or the whole of it. JSON has no NaN or infinity: a field
    holding one raises DataError naming `target`, `line` and the field."""
    try:
        return json.dumps(record, allow_nan=False, **options)
    except ValueError:
        for name, value in record.items():  # find the field that fails
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                message = f"cannot write {name}: JSON has no NaN or infinity"
                raise Fields(record, target, line).fail(message) from None
        raise


def write_jsonl(path: Path, records: Iterable[dict], header: bool = False, **options) -> None:
    """Replace the JSON-lines file at `path` atomically: the format header when
    `header`, then an `encode_json` line per record, each written as it is encoded.
    A record that fails leaves the old file in place and no temp file behind."""
    if header:
        records = itertools.chain([{"format": FORMAT_VERSION}], records)
    lines = (encode_json(r, path, n, **options) + "\n" for n, r in enumerate(records, 1))
    atomic_write_text(path, lines)


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
    records = (
        {"id": ex.id, "question": ex.question, "answers": list(ex.answers)}
        | ({} if ex.category is None else {"category": ex.category})
        for ex in dataset
    )
    write_jsonl(Path(path), records, header=True, ensure_ascii=False)


def _may_hold_boolean(text: str, vec_id: str) -> bool:
    """Whether the embedding line `text`, of id `vec_id`, may hold true, false or NaN.

    Outside its id string a line's keys and numbers hold no "a" and no "u", while
    those three words do, so most lines cost two one-character tests (memchr).
    The id's own letters are counted out; an escape that reads as an "a" in it is
    written with a "u" the id does not hold, so such a line is checked.
    """
    if "a" not in text and "u" not in text:
        return False
    return text.count("a") > vec_id.count("a") or text.count("u") > vec_id.count("u")


# A file of at least two pieces of this many bytes is parsed in pieces, one per
# CPU, each but the first in a forked child. A fork and a child's exit alone cost
# the parent about 2.5 ms. Split in two, files of 0.5-0.75 MB loaded 4.5-4.7 ms
# slower than whole, and files of 1.0, 2.0 and 2.9 MB 3.6, 9.8 and 17.9 ms
# faster (best of 40 loads, 2 vCPU)
_PIECE_BYTES = 1 << 20
# the bytes of a child's rows the parent holds at once on their way into its buffer
_CHUNK_BYTES = 1 << 16
# what a child sends ahead of its rows and ids: its row count, its dimension and
# the size of its pickled ids
_PIECE_HEAD = struct.Struct("=3Q")


def _parse_rows(
    path: Path, start: int = 0, end: int | None = None
) -> tuple[dict[str, int], array, int]:
    """The id -> row map, the float64 rows in file order and the dimension of the
    embedding lines of `path` that `read_jsonl` reads from `start` to `end`."""
    rows: dict[str, int] = {}
    values = array("d")  # every row, in file order
    dim = 0
    lines = read_jsonl(path, "embedding", header=True, texts=True, start=start, end=end)
    for text, record in lines:
        vec_id = record.get("id", str)
        # a boolean reads as 0 or 1 in the buffer, so a line that may hold one has
        # its elements checked, which raises for a boolean or a NaN
        row = record.get("vector", list, of=float if _may_hold_boolean(text, vec_id) else None)
        before = len(values)
        # fromlist grows the buffer once per row, and leaves it as it was when an
        # element fails, so no part of a bad row stays in it
        try:
            values.fromlist(row)
        except (TypeError, OverflowError):  # a non-number, or an int beyond any float
            values.fromlist(record.get("vector", list, of=float))  # raises for the element
        size = len(values) - before
        if not size:
            raise record.fail("vector must be a non-empty list")
        if rows and size != dim:
            raise record.fail(f"dimension mismatch (expected {dim}, got {size})")
        if vec_id in rows:
            raise record.fail(f"duplicate id {vec_id!r}")
        rows[vec_id] = len(rows)
        dim = size
    return rows, values, dim


def _cuts(path: Path) -> list[int]:
    """The offsets [0, ..., size] that cut the file at `path` into near-equal
    pieces, each beginning where a line does: one per CPU this process may use,
    but no more than the file holds _PIECE_BYTES, and only where a fork is safe;
    else one piece, [0, size].

    A fork copies only the calling thread, so it waits for a process with no other
    Python thread. From 3.12 on, CPython warns of deadlocks when it forks a process
    running any other OS thread, and numpy's BLAS pool is one.
    """
    size = path.stat().st_size
    affinity = getattr(os, "sched_getaffinity", None)
    if (
        size < 2 * _PIECE_BYTES
        or affinity is None
        or sys.platform != "linux"
        or sys.version_info >= (3, 12)
        or threading.active_count() > 1
    ):
        return [0, size]
    count = min(len(affinity(0)), size // _PIECE_BYTES)
    cuts = [0]
    with _open(path, "embedding") as fh:
        for i in range(1, count):
            # on to the first line that begins at or after byte size * i // count
            fh.seek(size * i // count - 1)
            fh.readline()
            if cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return cuts + [size]


def _read_into(reader, buffer) -> None:
    """Fill `buffer` from `reader`, a child's pipe; a short read is a ChildProcessError."""
    if reader.readinto(buffer) < len(buffer):
        raise ChildProcessError(f"a piece's child sent fewer than {len(buffer)} bytes")


def _send_piece(path: Path, start: int, end: int, writer, readers) -> NoReturn:
    """In a forked child: parse the lines of `path` from `start` to `end`, send
    their row count, dimension, float64 bytes and ids through `writer`, and exit,
    0 only when all were sent. It never returns, so no code of the parent runs
    twice."""
    code = 1
    try:
        for reader in readers:  # the parent's ends of every pipe
            reader.close()
        rows, values, dim = _parse_rows(path, start, end)
        ids = pickle.dumps(list(rows), pickle.HIGHEST_PROTOCOL)
        writer.write(_PIECE_HEAD.pack(len(rows), dim, len(ids)))
        writer.write(values)
        writer.write(ids)
        writer.flush()
        code = 0
    finally:
        os._exit(code)


def _parse_pieces(path: Path, cuts: list[int]) -> tuple[dict[str, int], array, int]:
    """`_parse_rows` of the whole file at `path`, cut at `cuts`: the first piece
    parsed here, each later one in a forked child whose float64 bytes and ids are
    appended in piece order, so the rows and their bits are the serial parse's.

    Any fault raises DataError (of a piece, or a dimension or an id that differs
    or repeats across pieces) or ChildProcessError (a child that sent short data
    or exited non-zero). Every child is reaped before this returns or raises,
    killed first if it is still running.
    """
    pids: list[int] = []  # children not yet reaped, in piece order
    readers: list = []  # the read end of each child's pipe, in piece order
    try:
        for start, end in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:  # the child keeps its own copy
                pid = os.fork()
                if not pid:
                    _send_piece(path, start, end, writer, readers)
                pids.append(pid)
        # the float buffer grows in place only while nothing is allocated after
        # it, so the chunk is made before it and every id is read after every
        # row; a buffer that moved as it grew raised eval_similar_greedy's
        # peak_rss_mb 1.65 MiB
        chunk = memoryview(bytearray(_CHUNK_BYTES))
        head = memoryview(bytearray(_PIECE_HEAD.size))
        rows, values, dim = _parse_rows(path, 0, cuts[1])
        id_sizes = []
        for reader in readers:
            _read_into(reader, head)
            count, piece_dim, id_size = _PIECE_HEAD.unpack(head)
            if count and dim and piece_dim != dim:
                raise DataError(f"{path}: dimension mismatch across pieces")
            dim = piece_dim if count else dim
            left = count * piece_dim * values.itemsize
            while left:
                part = chunk[: min(left, _CHUNK_BYTES)]
                _read_into(reader, part)
                values.frombytes(part)
                left -= len(part)
            id_sizes.append(id_size)
        for reader, id_size in zip(readers, id_sizes):
            pickled = bytearray(id_size)
            _read_into(reader, pickled)
            ids = pickle.loads(pickled)
            known = len(rows)
            rows.update(zip(ids, range(known, known + len(ids))))
            if len(rows) < known + len(ids):
                raise DataError(f"{path}: an id repeats across pieces")
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise ChildProcessError(f"a piece's child ended with wait status {status}")
        return rows, values, dim
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def load_embeddings(path: str | Path, dataset: Dataset | None = None) -> EmbeddingTable:
    """Load an embedding file and check it covers every id of `dataset`.

    Each line's vector is appended to one growing float64 buffer, which becomes
    the table's matrix without a copy, so a load peaks near one matrix. A number
    converts as `float()` does, so an int beyond 2**53 rounds as `float(int)`.

    A file of at least two pieces of `_PIECE_BYTES` is parsed in pieces at once
    (`_parse_pieces`). Any fault there discards the pieces, and the file is parsed
    again whole, so every error, and every line it names, is the serial parse's.
    """
    path = Path(path)
    parsed = None
    try:
        cuts = _cuts(path)
        if len(cuts) > 2:
            parsed = _parse_pieces(path, cuts)
    except (DataError, OSError):  # ChildProcessError is an OSError
        pass  # the serial parse below names the fault, if it is one of the file
    rows, values, dim = _parse_rows(path) if parsed is None else parsed
    if not rows:
        raise DataError(f"{path}: no vectors")
    table = EmbeddingTable(rows, np.frombuffer(values, np.float64).reshape(len(rows), dim))
    # every squared norm finite bounds every similarity and its error bound
    # (Cauchy-Schwarz). An infinity, which holds no "a" or "u", and an int beyond
    # the float range, which reads as +-the largest float, both overflow one, so
    # only then is the file read again, to name such an element first
    if not math.isfinite(table.max_norm):
        for record in read_jsonl(path, "embedding", header=True):
            record.get("vector", list, of=float)  # raises for a non-finite element
        norms = np.einsum("ij,ij->i", table.matrix, table.matrix).tolist()
        vec_id = next(i for i, norm in zip(rows, norms) if not math.isfinite(norm))
        raise DataError(f"{path}: the squared norm of vector {vec_id!r} is beyond the float range")
    if dataset is not None:
        table.require(dataset.ids())
    return table


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    records = ({"id": i, "vector": table.vector(i).tolist()} for i in sorted(table.rows))
    write_jsonl(Path(path), records, header=True)
