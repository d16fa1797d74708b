"""Every JSON file iclforge writes goes through `core.encode_json`, and every whole
file through `core.atomic_write_text`. JSON has no NaN or infinity, so such a
value reaching a writer is a DataError naming the file (and, in a JSON-lines
file, the line and the top-level field), and the file keeps what it held."""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial

import pytest

from iclforge import harness
from iclforge.core import (
    Dataset,
    EmbeddingTable,
    Example,
    atomic_write_text,
    encode_json,
    save_dataset,
    save_embeddings,
    write_jsonl,
)
from iclforge.errors import DataError
from iclforge.harness import RECORDS_FILE, RunConfig, run_eval
from iclforge.lm import CachedModel, MockModel
from iclforge.profiling import ExampleSet, KnowledgeProfile, save_profiles, save_sets


def _dataset(tmp_path, fixtures_dir, value):
    target = tmp_path / "train.jsonl"
    first = Example("t1", "q1", ("a",), category="places")
    save_dataset(Dataset("train", (first,)), target)
    bad = Dataset("train", (first, Example("t2", "q2", ("b",), category=value)))
    return target, partial(save_dataset, bad, target), "line 3: cannot write category"


def _embeddings(tmp_path, fixtures_dir, value):
    target = tmp_path / "emb.jsonl"
    save_embeddings(EmbeddingTable.from_vectors({"a": [0.5, 1.0]}), target)
    bad = EmbeddingTable.from_vectors({"a": [0.5, 1.0], "b": [0.25, value]})
    return target, partial(save_embeddings, bad, target), "line 3: cannot write vector"


def _profiles(tmp_path, fixtures_dir, value):
    target = tmp_path / "profiles.jsonl"

    def profile(example_id, avg_similarity):
        return KnowledgeProfile(example_id, 1.0, (2.0,), avg_similarity, "mock:test")

    save_profiles([profile("a", 0.5)], target)
    write = partial(save_profiles, [profile("a", 0.5), profile("b", value)], target)
    return target, write, "line 2: cannot write avg_similarity"


def _sets(tmp_path, fixtures_dir, value):
    target = tmp_path / "sets.jsonl"
    save_sets([ExampleSet("known", ("t1",), 0)], target)
    write = partial(save_sets, [ExampleSet("known", ("t1",), value)], target)
    return target, write, "line 1: cannot write seed"


def _manifest(tmp_path, fixtures_dir, value):
    harness._write_manifest(tmp_path, "eval", {"counts": {"examples": 3}})
    write = partial(harness._write_manifest, tmp_path, "eval", {"counts": {"x": value}})
    return tmp_path / harness.MANIFEST_FILE, write, "cannot write counts"


def _records_line(tmp_path, fixtures_dir, value):
    # an interrupted run resumes after its first record, and the second one's
    # scores hold the value
    config = RunConfig(
        train_path=str(fixtures_dir / "toy_train.jsonl"),
        eval_path=str(fixtures_dir / "toy_eval.jsonl"),
        embeddings_path=str(fixtures_dir / "toy_embeddings.jsonl"),
        backend=f"mock:{fixtures_dir / 'mock_toy.json'}",
        out_dir=str(tmp_path / "run"),
    )
    run_eval(config)
    target = tmp_path / "run" / RECORDS_FILE
    target.write_text(target.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    score = harness._score_example

    def write():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_score_example", lambda *a: {**score(*a), "em": value})
            run_eval(config)

    return target, write, "line 2: cannot write scores"


def _cache_entry(tmp_path, fixtures_dir, value):
    model = CachedModel(MockModel(["a", "b"]), tmp_path / "cache")
    request = {"op": "probe", "fingerprint": model.fingerprint}
    canonical = json.dumps(request, sort_keys=True, ensure_ascii=False)
    target = model.cache_dir / f"{hashlib.sha256(canonical.encode('utf-8')).hexdigest()}.json"
    write = partial(model._fetch, request, lambda: {"value": value}, lambda response: None)
    return target, write, "cannot write response"


WRITERS = {
    "dataset": _dataset,
    "embeddings": _embeddings,
    "profiles": _profiles,
    "sets": _sets,
    "manifest": _manifest,
    "records-line": _records_line,
    "cache-entry": _cache_entry,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("writer", WRITERS)
def test_non_finite_value_is_a_data_error_and_the_file_keeps_its_bytes(
    tmp_path, fixtures_dir, writer, value
):
    target, write, where = WRITERS[writer](tmp_path, fixtures_dir, value)
    before = target.read_bytes() if target.exists() else None
    with pytest.raises(DataError) as info:
        write()
    assert str(info.value) == f"{target}: {where}: JSON has no NaN or infinity"
    assert (target.read_bytes() if target.exists() else None) == before
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "record, options",
    [
        ({"b": [1.5, -0.0, 1e-300], "a": "é  ", "c": None}, {}),
        ({"b": {"y": 2, "x": [True]}, "a": "é"}, {"sort_keys": True, "ensure_ascii": False}),
        ({"z": 1, "a": {"k": [1, 2]}}, {"indent": 2, "sort_keys": True}),
    ],
)
def test_finite_records_encode_as_json_dumps_does(record, options):
    assert encode_json(record, "f.json", **options) == json.dumps(record, **options)


def test_write_jsonl_writes_the_header_then_a_line_per_record(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, iter([{"id": "é"}, {"id": "b"}]), header=True, ensure_ascii=False)
    assert path.read_text(encoding="utf-8") == (
        '{"format": "icl-forge/v1"}\n{"id": "é"}\n{"id": "b"}\n'
    )


@pytest.mark.parametrize("existing", [False, True], ids=["new", "replaced"])
def test_a_written_file_gets_the_mode_open_gives(tmp_path, existing):
    target = tmp_path / "train.jsonl"
    if existing:
        target.write_text("old\n", encoding="utf-8")
        target.chmod(0o600)
    umask = os.umask(0o027)
    try:
        atomic_write_text(target, "new\n")
    finally:
        os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o640
    assert target.read_text(encoding="utf-8") == "new\n"
