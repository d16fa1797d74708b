from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iclforge import core
from iclforge.core import (
    Dataset,
    Example,
    Fields,
    atomic_write_text,
    decode_json,
    load_dataset,
    load_embeddings,
    normalize_answer,
    read_json_object,
    read_jsonl,
    save_dataset,
    save_embeddings,
)
from iclforge.errors import DataError

HEADER = '{"format": "icl-forge/v1"}'


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record(i, question, answers, category=None):
    data = {"id": i, "question": question, "answers": answers}
    if category:
        data["category"] = category
    return json.dumps(data)


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("The TV show Friends", "tv show friends"),
            ("Friends", "friends"),
            ("  Jean   Ping. ", "jean ping"),
            ("A Walk in Wolf Wood", "walk in wolf wood"),
            ("an apple", "apple"),
            ("", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestLoadDataset:
    def test_loads_examples(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            HEADER,
            record("q1", "mary stewart novels", ["The Crystal Cave"] * 1),
            record("q2", "other", ["x", "y"], category="works"),
        )
        ds = load_dataset(path, split="train")
        assert len(ds) == 2
        assert ds.by_id("q2").category == "works"
        assert ds.by_id("q1") is ds.examples[0]
        with pytest.raises(DataError, match="no example with id 'q3'"):
            ds.by_id("q3")

    def test_many_answers(self, tmp_path):
        titles = [f"title {i}" for i in range(14)]
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, record("q1", "mary stewart novels", titles))
        ds = load_dataset(path, split="train")
        assert len(ds.by_id("q1").answers) == 14

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER)
        with pytest.raises(DataError, match="no examples"):
            load_dataset(path)

    def test_missing_header_errors(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, record("q1", "q", ["a"]))
        with pytest.raises(DataError, match="format"):
            load_dataset(path)

    def test_duplicate_question_dropped_in_train(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            HEADER,
            record("q1", "same question", ["a"]),
            record("q2", "same question", ["b"]),
        )
        ds = load_dataset(path, split="train")
        assert ds.ids() == ["q1"]

    def test_duplicate_question_kept_in_dev(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            HEADER,
            record("q1", "same question", ["a"]),
            record("q2", "same question", ["b"]),
        )
        assert len(load_dataset(path, split="dev")) == 2

    def test_duplicate_id_errors(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, record("q1", "one", ["a"]), record("q1", "two", ["b"]))
        with pytest.raises(DataError, match="duplicate id"):
            load_dataset(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, record("q1", "one", ["a"]), "{not json")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path)

    def test_empty_answer_list_names_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, record("q9", "one", []))
        with pytest.raises(DataError, match="q9"):
            load_dataset(path)

    def test_blank_answer_names_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, record("q7", "one", ["  "]))
        with pytest.raises(DataError, match="q7"):
            load_dataset(path)

    def test_crlf_line_endings_load(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [HEADER, record("q1", "where?", ["here", "there"])]
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        ds = load_dataset(path, split="dev")
        assert ds.examples[0].answers == ("here", "there")

    def test_delimiter_answer_flagged_not_dropped(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, record("q1", "one", ["left | right"]))
        with caplog.at_level("WARNING"):
            ds = load_dataset(path)
        assert not ds.by_id("q1").prompt_safe
        assert "shot duty" in caplog.text


# any text, with the line separators JSON leaves unescaped drawn often
ANY_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)), st.sampled_from("\u2028\u2029\u0085")
    ),
    min_size=1,
    max_size=12,
)


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                ANY_TEXT,
                ANY_TEXT,
                st.lists(ANY_TEXT.filter(str.strip), min_size=1, max_size=4),
                st.one_of(st.none(), ANY_TEXT),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda t: t[0],
        )
    )
    def test_save_load_identity(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        examples = tuple(
            Example(id=f"id{i}-{rid}", question=question, answers=tuple(answers), category=category)
            for i, (rid, question, answers, category) in enumerate(rows)
        )
        ds = Dataset(split="dev", examples=examples)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path, split="dev") == ds

    def test_toy_fixtures_round_trip_byte_for_byte(self, fixtures_dir, tmp_path):
        for name, split in (("toy_train.jsonl", "train"), ("toy_eval.jsonl", "dev")):
            save_dataset(load_dataset(fixtures_dir / name, split=split), tmp_path / name)
            assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes()
        name = "toy_embeddings.jsonl"
        save_embeddings(load_embeddings(fixtures_dir / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes()


class TestLoadEmbeddings:
    def embedding_file(self, tmp_path, rows):
        path = tmp_path / "e.jsonl"
        lines = [HEADER] + [json.dumps({"id": i, "vector": v}) for i, v in rows]
        write_lines(path, *lines)
        return path

    def dataset(self, tmp_path, ids):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, *[record(i, f"question {i}", ["a"]) for i in ids])
        return load_dataset(path, split="dev")

    def test_covering_table(self, tmp_path):
        ds = self.dataset(tmp_path, ["q1", "q2", "q3"])
        path = self.embedding_file(
            tmp_path, [("q1", [1, 0, 0, 0]), ("q2", [0, 1, 0, 0]), ("q3", [0, 0, 1, 0])]
        )
        table = load_embeddings(path, ds)
        assert table.dim == 4

    def test_missing_id_errors(self, tmp_path):
        ds = self.dataset(tmp_path, ["q1", "q2", "q3"])
        path = self.embedding_file(tmp_path, [("q1", [1, 0]), ("q2", [0, 1])])
        with pytest.raises(DataError, match="missing embedding for id q3"):
            load_embeddings(path, ds)

    def test_dimension_mismatch_errors(self, tmp_path):
        path = self.embedding_file(tmp_path, [("q1", [1, 0, 0, 0]), ("q2", [0, 1, 0, 0, 0])])
        with pytest.raises(DataError, match="dimension mismatch"):
            load_embeddings(path)

    def test_ints_beyond_64_bits_load_as_floats(self, tmp_path):
        path = self.embedding_file(tmp_path, [("q1", [2**64, 1]), ("q2", [0.5, -(2**70)])])
        table = load_embeddings(path)
        assert table.vector("q1").tolist() == [2.0**64, 1.0]
        assert table.vector("q2").tolist() == [0.5, -(2.0**70)]
        assert table.matrix.dtype == np.float64

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables_load_as_float_of_each_element(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        special = [
            -0.0, 0.0, 1.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            2**53 + 1, -(2**53 + 1), 2**63, 2**64 + 1, -(2**64 + 1), 10**20, 0, 1, 7,
        ]

        def element():
            draw = rng.integers(4)
            if draw == 0:
                return special[rng.integers(len(special))]
            if draw == 1:
                return int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 2**10))
            return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))

        n, dim = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        rows = [(f"v{int(i)}", [element() for _ in range(dim)]) for i in rng.permutation(n)]
        table = load_embeddings(self.embedding_file(tmp_path, rows))
        expected = np.array([[float(x) for x in row] for _, row in rows], dtype=np.float64)
        assert table.matrix.shape == expected.shape
        assert (table.matrix.view(np.uint64) == expected.view(np.uint64)).all()
        assert table.matrix.flags.c_contiguous and not table.matrix.flags.writeable
        assert list(table.rows) == [vec_id for vec_id, _ in rows]
        assert list(table.rows.values()) == list(range(n))

    def test_load_peaks_near_one_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [(f"e{i}", rng.standard_normal(64).tolist()) for i in range(2000)]
        path = self.embedding_file(tmp_path, rows)
        load_embeddings(path)  # imports and caches are made before tracing starts
        tracemalloc.start()
        try:
            table = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a row array per line, then a stacked copy, would peak above twice the matrix
        assert peak < 1.5 * table.matrix.nbytes

    @pytest.fixture
    def passes(self, monkeypatch):
        """The read_jsonl passes load_embeddings makes, one list of arguments each."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return read_jsonl(*args, **kwargs)

        monkeypatch.setattr(core, "read_jsonl", counted)
        return calls

    def test_toy_file_is_read_once(self, fixtures_dir, passes):
        # the toy file holds exact 0.0 and 1.0 values, which a boolean would read as
        table = load_embeddings(fixtures_dir / "toy_embeddings.jsonl")
        assert (table.matrix == 0.0).any() and (table.matrix == 1.0).any()
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "vec_id",
        ["q1", "aqua", "sauna", "\\u0061", "é"],
        ids=["plain", "a-and-u", "two-a", "escaped-a", "non-ascii"],
    )
    def test_a_boolean_is_caught_whatever_the_id(self, tmp_path, passes, vec_id):
        # an "a" or a "u" in the id is no sign of a boolean, written plain or escaped
        path = tmp_path / "e.jsonl"
        write_lines(path, HEADER, f'{{"id": "{vec_id}", "vector": [0.0, 1.0, 0.5]}}')
        assert load_embeddings(path).matrix.tolist() == [[0.0, 1.0, 0.5]]
        assert len(passes) == 1
        for word, at in (("true", 0), ("false", 2), ("NaN", 1)):
            vector = ["0.0", "1.0", "0.5"]
            vector[at] = word
            write_lines(
                path,
                HEADER,
                f'{{"id": "x{vec_id}", "vector": [1.0, 0.0, 0.5]}}',
                f'{{"id": "{vec_id}", "vector": [{", ".join(vector)}]}}',
            )
            with pytest.raises(DataError, match=rf"line 3: vector\[{at}\] .* got {word}$"):
                load_embeddings(path)

    def test_round_trip(self, tmp_path):
        path = self.embedding_file(tmp_path, [("q1", [0.25, -1.5]), ("q2", [3.0, 0.125])])
        table = load_embeddings(path)
        out = tmp_path / "out.jsonl"
        save_embeddings(table, out)
        again = load_embeddings(out)
        assert again.dim == table.dim
        for key in table.rows:
            assert list(again.vector(key)) == list(table.vector(key))


class TestReadJsonl:
    def test_holds_one_line_at_a_time(self, tmp_path):
        path = tmp_path / "big.jsonl"
        row = {"id": "", "vector": [0.123456789] * 8}
        with path.open("w", encoding="utf-8") as fh:
            fh.write(HEADER + "\n")
            for i in range(25_000):
                fh.write(json.dumps(dict(row, id=f"e{i}")) + "\n")
        size = path.stat().st_size
        assert 2_500_000 < size < 3_500_000
        tracemalloc.start()
        try:
            for _ in read_jsonl(path, "embedding", header=True):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * size

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join([HEADER, record("q1", "a", ["x"]), record("q2", "b", ["y"])]))
        assert [(r.line, r.get("id", str)) for r in read_jsonl(path, "dataset", True)] == [
            (2, "q1"),
            (3, "q2"),
        ]

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, HEADER, "", record("q1", "a", ["x"]), "  \t", "\r", "{not json")
        with pytest.raises(DataError, match="line 6: malformed JSON"):
            list(read_jsonl(path, "dataset", header=True))

    def test_empty_file_is_a_header_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="unsupported format header ''"):
            load_dataset(path)

    def test_utf8_fault_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [HEADER, record("q1", "a", ["x"]), record("q2", "b", ["y"])]
        path.write_bytes(
            "\n".join(lines).encode() + b'\n{"id": "q\xc3"}\n' + record("q4", "d", ["z"]).encode()
        )
        with pytest.raises(DataError, match="line 4: not valid UTF-8: invalid continuation byte"):
            load_dataset(path)

    def test_first_bad_line_wins(self, tmp_path):
        # a JSON fault before a UTF-8 fault is reported first
        path = tmp_path / "d.jsonl"
        path.write_bytes(HEADER.encode() + b'\n{not json\n{"id": "q\xff"}\n')
        with pytest.raises(DataError, match="line 2: malformed JSON"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "question, escape",
        [
            ("\\ud800", "\\ud800"),
            ("\\udfff tail", "\\udfff"),
            ("\\ude00\\ud83d", "\\ude00"),  # a pair in the wrong order
            ("\\ud83d \\ude00", "\\ud83d"),
        ],
    )
    def test_lone_surrogate_escape_names_its_line(self, tmp_path, question, escape):
        path = tmp_path / "d.jsonl"
        bad = '{"id": "q2", "question": "%s"}' % question
        write_lines(path, HEADER, record("q1", "a", ["x"]), bad)
        message = f"{path}: line 3: lone surrogate escape {escape}"
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset(path)

    def test_escaped_surrogate_pair_and_backslash_u_load(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            HEADER,
            '{"id": "q1", "question": "smile \\ud83d\\ude00", "answers": ["C:\\\\ud800"]}',
        )
        (example,) = load_dataset(path)
        assert example.question == "smile \U0001F600"
        assert example.answers == ("C:\\ud800",)


def json_loads_decode(text, source, line=None):
    """decode_json as json.loads alone makes it: the reference for its values and
    messages."""
    where = f"{source}: line {line}" if line else source
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{where}: malformed JSON: {exc}") from exc
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        escape = f"\\u{ord(exc.object[exc.start]):04x}"
        raise DataError(f"{where}: lone surrogate escape {escape} is not UTF-8 text") from exc
    return value


def outcome(decode, *args):
    """("value", its JSON text) or ("error", the message) of `decode(*args)`; the
    JSON text tells 1 from 1.0 and True, and NaN equals itself in it."""
    try:
        return "value", json.dumps(decode(*args))
    except DataError as exc:
        return "error", str(exc)


# texts that json.loads reads, or refuses, each in its own way
JSON_CASES = [
    '{"a": 1}',
    '{"a": 1}\r',  # a CRLF line once its newline is gone
    '{"a": 1}\r\n',
    '{"a": 1} \t ',
    ' {"a": 1}',
    '\t{"a": [1, 2.5]}  ',
    "\ufeff{\"a\": 1}",  # a BOM
    '{"a": 1} {"b": 2}',  # extra data
    '{"a": 1}x',
    "1 2",
    '{"a": NaN, "b": Infinity, "c": -Infinity}',
    "NaN",
    '"\\ud83d\\ude00"',  # an escaped surrogate pair
    '"\\ud800"',  # a lone surrogate
    '{"q": "C:\\\\ud800"}',  # an escaped backslash before "ud800"
    "\u00a0",
    "\u2028",
    '{"a": 1}\u00a0',
    '{"a": 1}\u2028',
    "",
    "\n",
    " ",
    '{"a": ',
    '{"a": 1,\n',
    '{"a": 1}\n\n',
    "[1, 2,]",
    '{"a": "\t"}',  # a raw control character in a string
    "-",
    "1" * 5000,  # beyond int()'s digit limit
    "[%s]" % ("1" * 4300),  # at it
]


def case_id(text: str) -> str:
    return ascii(text)[:24]


class TestReaderMatchesJsonLoads:
    @pytest.mark.parametrize("text", JSON_CASES, ids=case_id)
    def test_whole_text(self, text):
        assert outcome(decode_json, text, "src") == outcome(json_loads_decode, text, "src")

    @pytest.mark.parametrize("text", JSON_CASES, ids=case_id)
    def test_line_without_its_newline(self, text):
        # a line's newline is no part of its JSON, whatever its positions
        expected = outcome(json_loads_decode, text.rstrip("\n"), "src", 4)
        assert outcome(decode_json, text, "src", 4) == expected
        assert outcome(decode_json, text + "\n", "src", 4) == expected

    @given(
        st.lists(
            st.sampled_from(
                ['{', '}', '[', ']', '"a"', ':', ',', '1', '-', '0.5', 'e5', 'NaN',
                 'Infinity', 'true', 'null', ' ', '\t', '\r', '\n', '\ufeff', '\u00a0',
                 '\u2028', '"\\ud800"', '"\\ud83d\\ude00"', 'x']
            ),
            max_size=12,
        ).map("".join)
    )
    def test_any_text(self, text):
        assert outcome(decode_json, text, "src") == outcome(json_loads_decode, text, "src")
        assert outcome(decode_json, text, "src", 2) == outcome(
            json_loads_decode, text.rstrip("\n"), "src", 2
        )

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ), st.sampled_from(["", " ", "\t", "\r", " \t\r"]))
    def test_any_value_with_trailing_space(self, value, space):
        text = json.dumps(value) + space
        assert outcome(decode_json, text, "src", 2) == outcome(json_loads_decode, text, "src", 2)

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b""])
    @pytest.mark.parametrize("text", JSON_CASES, ids=case_id)
    def test_read_jsonl(self, tmp_path, text, ending):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"ok": 1}\n' + text.encode("utf-8") + ending)

        def reference():
            # the reader as json.loads alone makes it: lines end at b"\n" only, and
            # a line that strip() empties is blank
            *lines, last = path.read_bytes().split(b"\n")
            for lineno, raw in enumerate([line + b"\n" for line in lines] + [last], 1):
                line = raw.decode("utf-8")
                if line.strip():
                    value = json_loads_decode(line.rstrip("\n"), path, lineno)
                    if not isinstance(value, dict):
                        raise DataError(f"{path}: line {lineno}: record is not a JSON object")
                    yield value

        def read():
            return [record.data for record in read_jsonl(path, "dataset")]

        assert outcome(read) == outcome(lambda: list(reference()))

    def test_texts_keep_each_line_as_read(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes('{"a": 1}\r\n\n \u00a0\n{"b": 2}'.encode("utf-8"))
        assert [(text, f.data, f.line) for text, f in read_jsonl(path, "x", texts=True)] == [
            ('{"a": 1}\r\n', {"a": 1}, 1),
            ('{"b": 2}', {"b": 2}, 4),
        ]

    def test_truncated_whole_file_object_keeps_its_positions(self, tmp_path):
        path = tmp_path / "m.json"
        text = '{"vocab": ["a"],\n'
        path.write_text(text, encoding="utf-8")
        message = (
            f"{path}: malformed JSON: Expecting property name enclosed in double quotes: "
            "line 2 column 1 (char 17)"
        )
        assert outcome(json_loads_decode, text, path) == ("error", message)
        with pytest.raises(DataError) as info:
            read_json_object(path, "mock fixture")
        assert str(info.value) == message


class TestFieldsGet:
    def fields(self, **data):
        return Fields(data, "src", 3)

    def test_exact_kinds_are_returned_as_they_are(self):
        answers, record = ["x"], self.fields(id="q1", n=7, answers=None)
        record.data["answers"] = answers
        assert record.get("id", str) == "q1"
        assert record.get("n", int) == 7
        assert record.get("answers", list) is answers

    def test_bool_is_not_an_int(self):
        with pytest.raises(DataError, match=re.escape("src: line 3: n must be an int, got true")):
            self.fields(n=True).get("n", int)

    def test_int_for_float_is_a_float(self):
        value = self.fields(x=2).get("x", float)
        assert value == 2.0 and type(value) is float

    @pytest.mark.parametrize("value, shown", [(float("nan"), "NaN"), (float("-inf"), "-Infinity")])
    def test_a_float_is_checked_finite(self, value, shown):
        with pytest.raises(DataError, match=f"x must be a finite number, got {shown}"):
            self.fields(x=value).get("x", float)

    def test_null_with_and_without_a_default(self):
        record = self.fields(category=None)
        assert record.get("category", str, None) is None
        assert record.get("category", str, "none") == "none"
        assert record.get("absent", int, 5) == 5
        with pytest.raises(DataError, match="category must be a string, got null"):
            record.get("category", str)
        with pytest.raises(DataError, match="missing field 'absent'"):
            record.get("absent", str)

    def test_non_string_in_a_string_list(self):
        record = self.fields(answers=["a", 7])
        with pytest.raises(DataError, match=re.escape("answers[1] must be a string, got 7")):
            record.get("answers", list, of=str)
        with pytest.raises(DataError, match=re.escape("answer must be a string, got 7")):
            record.get("answers", list, of=str, item="answer")
        assert record.get("answers", list) == ["a", 7]


class TestAtomicWriteText:
    def test_replaces_content(self, tmp_path):
        target = tmp_path / "summary.tsv"
        target.write_text("old\n", encoding="utf-8")
        atomic_write_text(target, "new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "summary.tsv"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "lone surrogate \ud800")
        assert list(tmp_path.glob("*.tmp")) == []
        assert target.read_text(encoding="utf-8") == "old\n"

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError("read-only target")

        monkeypatch.setattr("iclforge.core.os.replace", refuse)
        with pytest.raises(PermissionError):
            atomic_write_text(tmp_path / "manifest.json", "{}")
        assert list(tmp_path.iterdir()) == []
