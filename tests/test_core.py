from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iclforge.core import (
    Dataset,
    Example,
    atomic_write_text,
    load_dataset,
    load_embeddings,
    normalize_answer,
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
