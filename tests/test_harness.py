from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from iclforge import harness, retrieval
from iclforge.core import (
    Dataset,
    EmbeddingTable,
    Example,
    load_dataset,
    save_dataset,
    save_embeddings,
)
from iclforge.errors import BackendError, DataError, UsageError
from iclforge.harness import (
    RECORDS_FILE,
    SCORE_KEYS,
    SUMMARY_FILE,
    EvalReport,
    ExampleRecord,
    RunConfig,
    adherence_for_records,
    adherence_from_report,
    compare_runs,
    load_report,
    run_eval,
)
from iclforge.lm import make_backend
from iclforge.metrics import paired_bootstrap

from rigs import CountingModel, build_copycat_rig, build_listcont_rig


def toy_config(fixtures_dir: Path, out_dir: Path, **overrides) -> RunConfig:
    settings = dict(
        train_path=str(fixtures_dir / "toy_train.jsonl"),
        eval_path=str(fixtures_dir / "toy_eval.jsonl"),
        embeddings_path=str(fixtures_dir / "toy_embeddings.jsonl"),
        backend=f"mock:{fixtures_dir / 'mock_toy.json'}",
        out_dir=str(out_dir),
        ordering="random",
        seed=0,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def _edit_first_record(text: str, **fields) -> str:
    first, rest = text.split("\n", 1)
    return json.dumps({**json.loads(first), **fields}) + "\n" + rest


def _edit_first_score(text: str, **scores) -> str:
    first = json.loads(text.split("\n", 1)[0])
    return _edit_first_record(text, scores={**first["scores"], **scores})


def report_bytes(out_dir: Path) -> tuple[bytes, bytes]:
    return (
        (out_dir / RECORDS_FILE).read_bytes(),
        (out_dir / SUMMARY_FILE).read_bytes(),
    )


class TestRunEvalSmoke:
    def test_three_records_and_finite_aggregates(self, fixtures_dir, tmp_path):
        report = run_eval(toy_config(fixtures_dir, tmp_path / "run"))
        assert len(report.records) == 3
        assert [r.example_id for r in report.records] == ["e1", "e2", "e3"]
        for key in ("em", "p_em", "r_em", "f1_em", "f1_f1", "answer_count"):
            assert key in report.aggregates
            assert report.aggregates[key] == report.aggregates[key]  # not NaN
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_manifest_is_the_only_state_file(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json",
            RECORDS_FILE,
            SUMMARY_FILE,
        ]

    def test_expected_toy_scores(self, fixtures_dir, tmp_path):
        report = run_eval(toy_config(fixtures_dir, tmp_path / "run"))
        by_id = {r.example_id: r for r in report.records}
        # rigged generations: half right, one-of-two right, exactly right
        assert by_id["e1"].answers == ("stone river", "silver river")
        assert by_id["e1"].scores["f1_em"] == pytest.approx(0.5)
        assert by_id["e2"].scores["p_em"] == 1.0
        assert by_id["e2"].scores["r_em"] == 0.5
        assert by_id["e3"].scores["f1_em"] == 1.0
        assert by_id["e3"].scores["em"] == 1.0

    def test_every_strategy_runs(self, fixtures_dir, tmp_path):
        for strategy in ("random", "alphabet", "perplexity", "reverse_perplexity", "greedy", "reverse_greedy"):
            report = run_eval(
                toy_config(fixtures_dir, tmp_path / strategy, ordering=strategy)
            )
            assert len(report.records) == 3


class TestDeterminism:
    def test_rerun_byte_identical(self, fixtures_dir, tmp_path):
        run_eval(toy_config(fixtures_dir, tmp_path / "a", ordering="greedy"))
        run_eval(toy_config(fixtures_dir, tmp_path / "b", ordering="greedy"))
        assert report_bytes(tmp_path / "a") == report_bytes(tmp_path / "b")

    def test_jobs_do_not_change_bytes(self, fixtures_dir, tmp_path):
        run_eval(toy_config(fixtures_dir, tmp_path / "serial", ordering="perplexity", jobs=1))
        run_eval(toy_config(fixtures_dir, tmp_path / "parallel", ordering="perplexity", jobs=4))
        assert report_bytes(tmp_path / "serial") == report_bytes(tmp_path / "parallel")

    def test_cache_only_rerun_identical(self, fixtures_dir, tmp_path):
        cache = tmp_path / "cache"
        first = toy_config(
            fixtures_dir, tmp_path / "one", ordering="greedy", cache_dir=str(cache)
        )
        misses = run_eval(first).manifest["counts"]["cache_misses"]
        second = toy_config(
            fixtures_dir, tmp_path / "two", ordering="greedy", cache_dir=str(cache)
        )
        report = run_eval(second)
        assert misses > 0
        assert report.manifest["counts"]["cache_misses"] == 0
        assert report.manifest["counts"]["cache_hits"] == misses
        assert report_bytes(tmp_path / "one") == report_bytes(tmp_path / "two")
        # greedy splits the answers itself on the mock, which tokenizes on spaces,
        # so no answer line is ever scored
        requests = [json.loads(p.read_text(encoding="utf-8"))["request"] for p in cache.glob("*.json")]
        scored = [r["continuation"] for r in requests if r["op"] == "score"]
        assert not [c for c in scored if " | " in c]


class TestSingleFlightPlanning:
    def counted_run(self, fixtures_dir, out_dir, monkeypatch, jobs):
        built: list[CountingModel] = []

        def counting_backend(spec, cache_dir=None):
            # the sleep keeps every backend call open long enough for the
            # workers ordering shots and generating to overlap
            built.append(CountingModel(make_backend(spec, cache_dir), delay=0.002))
            return built[-1]

        monkeypatch.setattr(harness, "make_backend", counting_backend)
        run_eval(toy_config(fixtures_dir, out_dir, ordering="greedy", jobs=jobs))
        return built[0].counts

    def test_jobs_do_not_change_backend_calls(self, fixtures_dir, tmp_path, monkeypatch):
        serial = self.counted_run(fixtures_dir, tmp_path / "serial", monkeypatch, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            parallel = self.counted_run(fixtures_dir, tmp_path / "parallel", monkeypatch, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert serial["score"] > 0
        assert parallel == serial
        assert report_bytes(tmp_path / "serial") == report_bytes(tmp_path / "parallel")


    @pytest.mark.parametrize("jobs", [1, 4])
    def test_kmeans_runs_once_per_run(self, fixtures_dir, tmp_path, monkeypatch, jobs):
        # the toy eval ids are not in the training pool, so every query shares one pool
        calls = []
        kmeans = retrieval.kmeans

        def counting(vectors, k, seed, *rest):
            calls.append((vectors.tobytes(), k, seed))
            time.sleep(0.002)  # keeps the first call open while other workers ask
            return kmeans(vectors, k, seed, *rest)

        monkeypatch.setattr(retrieval, "kmeans", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            config = toy_config(
                fixtures_dir, tmp_path / "out", retrieval_strategy="diverse", k=2, jobs=jobs
            )
            report = run_eval(config)
        finally:
            sys.setswitchinterval(interval)
        assert len(report.records) > 1
        assert len(calls) == 1


class TestOneJob:
    def test_one_job_submits_nothing_to_an_executor(self, fixtures_dir, tmp_path, monkeypatch):
        submitted = []
        submit = ThreadPoolExecutor.submit

        def counting_submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
        report = run_eval(toy_config(fixtures_dir, tmp_path / "one", ordering="greedy", jobs=1))
        assert len(report.records) == 3
        assert submitted == []
        run_eval(toy_config(fixtures_dir, tmp_path / "three", ordering="greedy", jobs=3))
        # one submit per distinct shot, ordered before generation, and one per example
        shots = {i for record in report.records for i in record.shot_ids}
        assert len(submitted) == len(shots) + len(report.records)
        assert report_bytes(tmp_path / "one") == report_bytes(tmp_path / "three")


class TestParallelFailure:
    def test_first_failure_cancels_queued_examples(self, fixtures_dir, tmp_path, monkeypatch):
        shots = [
            Example(id=f"s{i}", question=f"which stars name sign {i}?", answers=("a", "b"))
            for i in range(3)
        ]
        evals = [
            Example(id=f"e{i:02d}", question=f"which stars name mark {i}?", answers=("a",))
            for i in range(12)
        ]
        rng = np.random.default_rng(0)
        table = EmbeddingTable.from_vectors({ex.id: rng.normal(size=3) for ex in shots + evals})
        save_dataset(Dataset(split="train", examples=tuple(shots)), tmp_path / "train.jsonl")
        save_dataset(Dataset(split="dev", examples=tuple(evals)), tmp_path / "eval.jsonl")
        save_embeddings(table, tmp_path / "emb.jsonl")
        first_query = f"Question: {evals[0].question}\nAnswers:"

        class FirstExampleFails(CountingModel):
            # the first example fails at once; every other generation takes a while
            def generate(self, prompt, stop, max_tokens):
                if prompt.endswith(first_query):
                    with self._lock:
                        self.counts["generate"] += 1
                    raise BackendError("backend refused the request")
                return super().generate(prompt, stop, max_tokens)

        built: list[CountingModel] = []

        def failing_backend(spec, cache_dir=None):
            built.append(FirstExampleFails(make_backend(spec, cache_dir), delay=0.05))
            return built[-1]

        monkeypatch.setattr(harness, "make_backend", failing_backend)
        jobs = 2
        config = RunConfig(
            train_path=str(tmp_path / "train.jsonl"),
            eval_path=str(tmp_path / "eval.jsonl"),
            embeddings_path=str(tmp_path / "emb.jsonl"),
            backend=f"mock:{fixtures_dir / 'mock_uniform.json'}",
            out_dir=str(tmp_path / "out"),
            k=1,
            max_tokens=2,
            jobs=jobs,
        )
        with pytest.raises(BackendError, match="refused"):
            run_eval(config)
        assert built[0].counts["generate"] <= 2 * jobs

    def test_failure_while_ordering_shots_writes_no_record(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        class OrderingFails(CountingModel):
            def score_continuation(self, context, continuation):
                raise BackendError("backend refused to score")

        built: list[CountingModel] = []

        def failing_backend(spec, cache_dir=None):
            built.append(OrderingFails(make_backend(spec, cache_dir)))
            return built[-1]

        monkeypatch.setattr(harness, "make_backend", failing_backend)
        out = tmp_path / "out"
        with pytest.raises(BackendError, match="refused to score"):
            run_eval(toy_config(fixtures_dir, out, ordering="greedy", jobs=2))
        assert built[0].counts["generate"] == 0
        assert (out / RECORDS_FILE).read_bytes() == b""
        assert not (out / SUMMARY_FILE).exists()


class TestResume:
    def test_resume_completes_prefix(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        full_records, full_summary = report_bytes(out)
        lines = (out / RECORDS_FILE).read_text(encoding="utf-8").splitlines()
        (out / RECORDS_FILE).write_text(lines[0] + "\n", encoding="utf-8")
        (out / SUMMARY_FILE).unlink()
        report = run_eval(toy_config(fixtures_dir, out))
        assert report.manifest["counts"]["resumed"] == 1
        assert report_bytes(out) == (full_records, full_summary)

    def test_resume_counts_skipped_not_in_prompt_scores_of_resumed_records(
        self, fixtures_dir, tmp_path
    ):
        # every gold answer of e1 and e2 is a fixed shot's answer, so neither gets
        # a not-in-prompt score
        eval_path = tmp_path / "eval.jsonl"
        text = (fixtures_dir / "toy_eval.jsonl").read_text(encoding="utf-8")
        rows = [json.loads(line) for line in text.splitlines()]
        rows[1]["answers"], rows[2]["answers"] = ["stone river"], ["mira kest"]
        eval_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        settings = dict(eval_path=str(eval_path), fixed_set_ids=("t1", "t3"))
        full = run_eval(toy_config(fixtures_dir, tmp_path / "full", **settings))
        assert full.manifest["counts"]["not_in_prompt_skipped"] == 2
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, **settings))
        lines = (out / RECORDS_FILE).read_text(encoding="utf-8").splitlines()
        (out / RECORDS_FILE).write_text(lines[0] + "\n" + lines[1] + "\n", encoding="utf-8")
        report = run_eval(toy_config(fixtures_dir, out, **settings))
        assert report.manifest["counts"]["resumed"] == 2
        assert report.manifest["counts"]["examples"] == 3
        assert report.manifest["counts"]["not_in_prompt_skipped"] == 2
        assert report_bytes(out) == report_bytes(tmp_path / "full")

    def test_config_change_discards_partial(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        report = run_eval(toy_config(fixtures_dir, out, seed=1))
        assert report.manifest["counts"]["resumed"] == 0

    def test_greedy_resume_rederives_prompts(self, fixtures_dir, tmp_path):
        # resumed records get their prompts rendered again from their shot ids
        expected = run_eval(toy_config(fixtures_dir, tmp_path / "full", ordering="greedy"))
        assert "phi_greedy" in expected.aggregates
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        lines = (out / RECORDS_FILE).read_text(encoding="utf-8").splitlines()
        (out / RECORDS_FILE).write_text(lines[0] + "\n", encoding="utf-8")
        (out / SUMMARY_FILE).unlink()
        report = run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        assert report.manifest["counts"]["resumed"] == 1
        assert report.aggregates["phi_greedy"] == expected.aggregates["phi_greedy"]
        assert report_bytes(out) == report_bytes(tmp_path / "full")

    def test_tampered_prompt_hash_of_a_resumed_record_raises(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        lines = (out / RECORDS_FILE).read_text(encoding="utf-8").splitlines()
        kept = json.loads(lines[0])
        assert len(kept["answers"]) > 1  # its prompt is rendered for adherence
        tampered = _edit_first_record(lines[0] + "\n", prompt_sha256="0" * 64)
        (out / RECORDS_FILE).write_text(tampered, encoding="utf-8")
        (out / SUMMARY_FILE).unlink()
        built: list[CountingModel] = []

        def counting_backend(spec, cache_dir=None):
            built.append(CountingModel(make_backend(spec, cache_dir)))
            return built[-1]

        monkeypatch.setattr(harness, "make_backend", counting_backend)
        with pytest.raises(DataError, match=f"{kept['id']!r} does not match the stored"):
            run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        # the resumed record is checked before anything is generated or appended
        assert built[0].counts["generate"] == 0
        assert (out / RECORDS_FILE).read_text(encoding="utf-8") == tampered
        assert not (out / SUMMARY_FILE).exists()

    def test_resume_across_a_changed_cache_dir(self, fixtures_dir, tmp_path):
        run_eval(toy_config(fixtures_dir, tmp_path / "full", ordering="greedy"))
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        self.cut_to_first_record(out)
        cache = str(tmp_path / "cache")
        report = run_eval(toy_config(fixtures_dir, out, ordering="greedy", cache_dir=cache))
        assert report.manifest["counts"]["resumed"] == 1
        assert report.manifest["config"]["cache_dir"] == cache
        assert report_bytes(out) == report_bytes(tmp_path / "full")

    def copied_inputs(self, fixtures_dir, tmp_path) -> dict:
        paths = {}
        for key, name in (
            ("train_path", "toy_train.jsonl"),
            ("eval_path", "toy_eval.jsonl"),
            ("embeddings_path", "toy_embeddings.jsonl"),
            ("backend", "mock_toy.json"),
        ):
            copy = tmp_path / name
            copy.write_bytes((fixtures_dir / name).read_bytes())
            paths[key] = str(copy)
        paths["backend"] = f"mock:{paths['backend']}"
        return paths

    def cut_to_first_record(self, out):
        lines = (out / RECORDS_FILE).read_text(encoding="utf-8").splitlines()
        (out / RECORDS_FILE).write_text(lines[0] + "\n", encoding="utf-8")

    def test_edited_train_file_restarts_run(self, fixtures_dir, tmp_path):
        inputs = self.copied_inputs(fixtures_dir, tmp_path)
        out = tmp_path / "run"
        first = run_eval(toy_config(fixtures_dir, out, **inputs))
        self.cut_to_first_record(out)
        train = Path(inputs["train_path"])
        text = train.read_text(encoding="utf-8")
        edited = text.replace('["ada lenz"]', '["ada lenz", "bo lenz"]')
        assert edited != text
        train.write_text(edited, encoding="utf-8")
        report = run_eval(toy_config(fixtures_dir, out, **inputs))
        assert report.manifest["counts"]["resumed"] == 0
        sha = report.manifest["input_sha256"]
        assert sha["train"] == hashlib.sha256(edited.encode("utf-8")).hexdigest()
        assert sha["train"] != first.manifest["input_sha256"]["train"]
        assert sha["eval"] == first.manifest["input_sha256"]["eval"]

    def test_edited_mock_fixture_restarts_run(self, fixtures_dir, tmp_path):
        inputs = self.copied_inputs(fixtures_dir, tmp_path)
        out = tmp_path / "run"
        first = run_eval(toy_config(fixtures_dir, out, **inputs))
        self.cut_to_first_record(out)
        mock = Path(inputs["backend"].removeprefix("mock:"))
        fixture = json.loads(mock.read_text(encoding="utf-8"))
        fixture["rules"][0]["weight"] = 50.0
        mock.write_text(json.dumps(fixture), encoding="utf-8")
        report = run_eval(toy_config(fixtures_dir, out, **inputs))
        assert report.manifest["model_fingerprint"] != first.manifest["model_fingerprint"]
        assert report.manifest["counts"]["resumed"] == 0

    def test_alphabet_resume_plans_only_new_examples(self, fixtures_dir, tmp_path, monkeypatch):
        # alphabet adherence reads no prompt, so resumed records are not re-planned
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="alphabet"))
        self.cut_to_first_record(out)
        retrieved = []
        retrieve = harness.retrieve

        def counting_retrieve(query, *args, **kwargs):
            retrieved.append(query.id)
            return retrieve(query, *args, **kwargs)

        monkeypatch.setattr(harness, "retrieve", counting_retrieve)
        report = run_eval(toy_config(fixtures_dir, out, ordering="alphabet"))
        assert report.manifest["counts"]["resumed"] == 1
        assert len(retrieved) == 2
        assert "phi_alphabet" in report.aggregates

    def test_failed_rerun_with_new_config_leaves_no_stale_state(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))

        class FailsAfterFirstRecord(CountingModel):
            def generate(self, prompt, stop, max_tokens):
                if self.counts["generate"]:
                    raise BackendError("backend went away")
                return super().generate(prompt, stop, max_tokens)

        def failing_backend(spec, cache_dir=None):
            return FailsAfterFirstRecord(make_backend(spec, cache_dir))

        monkeypatch.setattr(harness, "make_backend", failing_backend)
        config = toy_config(fixtures_dir, out, ordering="alphabet")
        with pytest.raises(BackendError, match="went away"):
            run_eval(config)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == config.to_dict()
        assert "counts" not in manifest
        assert not (out / SUMMARY_FILE).exists()
        report = load_report(out)
        assert len(report.records) == 1
        assert report.aggregates["n_examples"] == 1.0

    @pytest.mark.parametrize(
        "manifest",
        ["{", "[]", None, "[" * 100_000 + "]" * 100_000],
        ids=["torn", "array", "missing", "deep-nesting"],
    )
    def test_unreadable_manifest_restarts_run(self, fixtures_dir, tmp_path, manifest):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        full = report_bytes(out)
        if manifest is None:
            (out / "manifest.json").unlink()
        else:
            (out / "manifest.json").write_text(manifest, encoding="utf-8")
        report = run_eval(toy_config(fixtures_dir, out))
        assert report.manifest["counts"]["resumed"] == 0
        assert report_bytes(out) == full

    def test_torn_last_line_dropped(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        full = report_bytes(out)
        (out / RECORDS_FILE).write_bytes(full[0][:-20])
        report = run_eval(toy_config(fixtures_dir, out))
        assert report.manifest["counts"]["resumed"] == 2
        assert report_bytes(out) == full

    def test_unparsable_last_line_dropped(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        full = report_bytes(out)
        first = full[0].splitlines(keepends=True)[0]
        (out / RECORDS_FILE).write_bytes(first + b'{"id": "e2"}\n')
        report = run_eval(toy_config(fixtures_dir, out))
        assert report.manifest["counts"]["resumed"] == 1
        assert report_bytes(out) == full

    def test_repeated_last_line_refused_not_dropped(self, fixtures_dir, tmp_path):
        # a whole record that repeats an id is no torn line: the file stays as it is
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        lines = (out / RECORDS_FILE).read_bytes().splitlines(keepends=True)
        repeated = lines[0] + lines[1] + lines[0]
        (out / RECORDS_FILE).write_bytes(repeated)
        with pytest.raises(DataError, match="line 3: example id 'e1' repeats line 1"):
            run_eval(toy_config(fixtures_dir, out))
        assert (out / RECORDS_FILE).read_bytes() == repeated

    def test_bad_inner_line_raises(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        lines = (out / RECORDS_FILE).read_bytes().splitlines(keepends=True)
        (out / RECORDS_FILE).write_bytes(lines[0] + b"{not json\n" + lines[2])
        with pytest.raises(DataError, match="line 2"):
            run_eval(toy_config(fixtures_dir, out))


class TestFixedSet:
    def test_same_shots_for_every_query(self, fixtures_dir, tmp_path):
        config = toy_config(
            fixtures_dir,
            tmp_path / "fixed",
            fixed_set_ids=("t3", "t1", "t5"),
        )
        report = run_eval(config)
        for record in report.records:
            assert record.shot_ids == ("t3", "t1", "t5")
        hashes = {r.prompt_sha256 for r in report.records}
        assert len(hashes) == 3  # prompts differ only in the query block

    def test_unknown_member_rejected(self, fixtures_dir, tmp_path):
        config = toy_config(
            fixtures_dir, tmp_path / "fixed", fixed_set_ids=("t1", "missing")
        )
        with pytest.raises(DataError):
            run_eval(config)


class TestValidation:
    def test_empty_fixed_set_rejected(self, fixtures_dir, tmp_path):
        with pytest.raises(UsageError):
            toy_config(fixtures_dir, tmp_path, fixed_set_ids=())

    def test_repeated_fixed_set_member_rejected(self, fixtures_dir, tmp_path):
        message = r"fixed example set repeats an id: \['t1', 't3', 't1'\]"
        with pytest.raises(UsageError, match=message):
            toy_config(fixtures_dir, tmp_path, fixed_set_ids=("t1", "t3", "t1"))

    def test_unknown_strategy_rejected(self, fixtures_dir, tmp_path):
        with pytest.raises(UsageError):
            toy_config(fixtures_dir, tmp_path, ordering="sideways")

    @pytest.mark.parametrize(
        "field, value",
        [("k", 2.5), ("jobs", True), ("max_tokens", None), ("eval_split", 3),
         ("fixed_set_ids", "t1"), ("compute_adherence", 1)],
        ids=["k-a-float", "jobs-a-bool", "max-tokens-null", "split-a-number",
             "fixed-set-a-string", "adherence-a-number"],
    )
    def test_field_of_a_wrong_type_rejected(self, fixtures_dir, tmp_path, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be "):
            toy_config(fixtures_dir, tmp_path, **{field: value})

    @pytest.mark.parametrize(
        "field", ["train_path", "eval_path", "embeddings_path", "out_dir", "cache_dir"]
    )
    def test_empty_path_rejected(self, fixtures_dir, tmp_path, field):
        with pytest.raises(UsageError, match=f"^{field} must be a non-empty path, got ''$"):
            RunConfig(**{**toy_config(fixtures_dir, tmp_path).to_dict(), field: ""})

    def test_negative_ordering_prefix_k_rejected(self, fixtures_dir, tmp_path):
        assert toy_config(fixtures_dir, tmp_path, ordering_prefix_k=0).ordering_prefix_k == 0
        with pytest.raises(UsageError, match="^ordering_prefix_k must be at least 0, got -1$"):
            toy_config(fixtures_dir, tmp_path, ordering_prefix_k=-1)

    def test_fixed_set_list_kept_as_a_tuple(self, fixtures_dir, tmp_path):
        config = RunConfig.from_dict(
            toy_config(fixtures_dir, tmp_path, fixed_set_ids=["t3", "t1"]).to_dict()
        )
        assert config.fixed_set_ids == ("t3", "t1")


class TestOversizedShots:
    def test_kept_in_gold_order_and_tallied(self, fixtures_dir, tmp_path):
        train_path = tmp_path / "train.jsonl"
        lines = (fixtures_dir / "toy_train.jsonl").read_text(encoding="utf-8").splitlines()
        big = {
            "id": "t9",
            "question": "which pebbles line the long shore?",
            "answers": [f"pebble {i:02d}" for i in range(25)],
        }
        lines.append(json.dumps(big))
        train_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        emb_path = tmp_path / "emb.jsonl"
        emb_lines = (fixtures_dir / "toy_embeddings.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        emb_lines.append(json.dumps({"id": "t9", "vector": [2.0, 2.0, 2.0, 2.0]}))
        emb_path.write_text("\n".join(emb_lines) + "\n", encoding="utf-8")
        config = toy_config(
            fixtures_dir,
            tmp_path / "run",
            train_path=str(train_path),
            embeddings_path=str(emb_path),
            ordering="alphabet",
            k=7,
        )
        report = run_eval(config)
        assert report.manifest["counts"]["reorder_skipped"] == 1
        for record in report.records:
            assert "t9" in record.shot_ids


class TestLoadReport:
    def test_round_trip_and_consistency_check(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        original = run_eval(toy_config(fixtures_dir, out))
        loaded = load_report(out)
        assert [r.example_id for r in loaded.records] == [
            r.example_id for r in original.records
        ]
        assert loaded.aggregates == original.aggregates

    def test_tampered_summary_detected(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        summary = (out / SUMMARY_FILE).read_text(encoding="utf-8")
        (out / SUMMARY_FILE).write_text(
            summary.replace("f1_em\t", "f1_em\t9"), encoding="utf-8"
        )
        with pytest.raises(DataError, match="does not match"):
            load_report(out)

    def test_summary_value_one_ulp_off_detected(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        report = run_eval(toy_config(fixtures_dir, out))
        moved = math.nextafter(report.aggregates["f1_f1"], math.inf)
        summary = (out / SUMMARY_FILE).read_text(encoding="utf-8")
        (out / SUMMARY_FILE).write_text(
            re.sub(r"(?m)^f1_f1\t.*$", f"f1_f1\t{moved!r}", summary), encoding="utf-8"
        )
        with pytest.raises(DataError, match="summary value for 'f1_f1' does not match"):
            load_report(out)

    def test_torn_records_raise_data_error(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        records = (out / RECORDS_FILE).read_bytes()
        (out / RECORDS_FILE).write_bytes(records[:-20])
        with pytest.raises(DataError, match="line 3"):
            load_report(out)

    @pytest.mark.parametrize("keep_summary", [True, False], ids=["summary-kept", "summary-deleted"])
    def test_repeated_example_id_raises_data_error(self, fixtures_dir, tmp_path, keep_summary):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        records = out / RECORDS_FILE
        first = records.read_bytes().splitlines(keepends=True)[0]
        with records.open("ab") as fh:
            fh.write(first)
        if not keep_summary:
            (out / SUMMARY_FILE).unlink()
        with pytest.raises(DataError, match=f"{records}: line 4: example id 'e1' repeats line 1"):
            load_report(out)

    def test_missing_key_raises_data_error(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        lines = (out / RECORDS_FILE).read_bytes().splitlines(keepends=True)
        (out / RECORDS_FILE).write_bytes(b'{"id": "e1"}\n' + b"".join(lines[1:]))
        with pytest.raises(DataError, match="line 1"):
            load_report(out)

    def test_malformed_manifest_or_summary_raises_data_error(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        manifest = (out / "manifest.json").read_text(encoding="utf-8")
        (out / "manifest.json").write_text("{", encoding="utf-8")
        with pytest.raises(DataError, match="manifest"):
            load_report(out)
        (out / "manifest.json").write_text(manifest, encoding="utf-8")
        (out / SUMMARY_FILE).write_text("f1_em\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(DataError, match="summary"):
            load_report(out)

    @pytest.mark.parametrize(
        "file, tamper, message",
        [
            pytest.param(
                SUMMARY_FILE,
                lambda text: re.sub(r"(?m)^f1_em\t.*$", "f1_em\tnan", text),
                r"summary\.tsv: f1_em: malformed JSON",
                id="summary-nan",
            ),
            pytest.param(
                SUMMARY_FILE,
                lambda text: "em\t0.123\n" + text,
                r"summary\.tsv: line 3: key 'em' repeats line 1",
                id="summary-key-repeated",
            ),
            pytest.param(
                SUMMARY_FILE,
                lambda text: text + "zz\t0.5\n",
                r"summary\.tsv: line 13: unknown summary key 'zz'",
                id="summary-key-unknown",
            ),
            pytest.param(
                SUMMARY_FILE,
                lambda text: text.replace("phi_greedy\t100.0", "phi_greedy\t-7.0"),
                r"summary\.tsv: line 10: phi_greedy -7\.0 is outside \[0, 100\]",
                id="phi-below-0",
            ),
            pytest.param(
                SUMMARY_FILE,
                lambda text: text + "phi_alphabet\t0.5\n",
                r"summary\.tsv: line 13: unknown summary key 'phi_alphabet'",
                id="phi-of-another-ordering",
            ),
            pytest.param(
                SUMMARY_FILE,
                lambda text: text + "phi_random\t1e300\n",
                r"summary\.tsv: line 13: unknown summary key 'phi_random'",
                id="phi-random",
            ),
            pytest.param(
                "manifest.json",
                lambda text: "[1]",
                r"manifest\.json: not a JSON object",
                id="manifest-a-list",
            ),
            pytest.param(
                RECORDS_FILE,
                lambda text: _edit_first_record(text, answers="st"),
                r"records\.jsonl: line 1: answers must be a list, got \"st\"",
                id="answers-a-string",
            ),
            pytest.param(
                RECORDS_FILE,
                lambda text: _edit_first_record(text, shot_ids="xy"),
                r"records\.jsonl: line 1: shot_ids must be a list, got \"xy\"",
                id="shot-ids-a-string",
            ),
            pytest.param(
                RECORDS_FILE,
                lambda text: _edit_first_score(text, em="1"),
                r"records\.jsonl: line 1: em must be a finite number, got \"1\"",
                id="score-a-string",
            ),
            pytest.param(
                RECORDS_FILE,
                lambda text: _edit_first_score(text, em=float("nan")),
                r"records\.jsonl: line 1: em must be a finite number, got NaN",
                id="score-nan",
            ),
        ],
    )
    def test_malformed_field_names_file_line_and_field(
        self, fixtures_dir, tmp_path, file, tamper, message
    ):
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        path = out / file
        path.write_text(tamper(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(DataError, match=message):
            adherence_from_report(out, "greedy")

    def test_without_a_config_any_phi_but_phi_random_loads(self, fixtures_dir, tmp_path):
        # adherence to random is undefined, so no run writes phi_random
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        (out / "manifest.json").unlink()
        summary = out / SUMMARY_FILE
        text = summary.read_text(encoding="utf-8")
        summary.write_text(text + "phi_alphabet\t0.5\n", encoding="utf-8")
        assert load_report(out).aggregates["phi_alphabet"] == 0.5
        summary.write_text(text + "phi_random\t50.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"line 13: unknown summary key 'phi_random'"):
            load_report(out)

    def test_line_separator_inside_a_record(self, fixtures_dir, tmp_path):
        # records are split on newlines only, not on every Unicode line break
        out = tmp_path / "run"
        run_eval(toy_config(fixtures_dir, out))
        path = out / RECORDS_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        record["raw_text"] += "\u2028"
        lines[0] = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert load_report(out).records[0].raw_text.endswith("\u2028")


class TestCompareRuns:
    def test_self_comparison_p_one(self, fixtures_dir, tmp_path):
        report = run_eval(toy_config(fixtures_dir, tmp_path / "run"))
        rows = compare_runs(report, report, resamples=1000, seed=0)
        assert rows
        for row in rows:
            assert row["p_value"] == 1.0
            assert not row["significant"] or row["p_value"] <= 0.05

    def test_deterministic_per_seed(self, fixtures_dir, tmp_path):
        a = run_eval(toy_config(fixtures_dir, tmp_path / "a", ordering="alphabet"))
        b = run_eval(toy_config(fixtures_dir, tmp_path / "b", ordering="random"))
        rows_1 = compare_runs(a, b, resamples=1000, seed=7)
        rows_2 = compare_runs(a, b, resamples=1000, seed=7)
        assert rows_1 == rows_2

    def test_id_mismatch_rejected(self, fixtures_dir, tmp_path):
        report = run_eval(toy_config(fixtures_dir, tmp_path / "run"))
        truncated = load_report(tmp_path / "run")
        truncated.records = truncated.records[:2]
        with pytest.raises(DataError):
            compare_runs(report, truncated, resamples=1000)

    def test_strict_dominance_p_zero(self, fixtures_dir, tmp_path):
        report = run_eval(toy_config(fixtures_dir, tmp_path / "run"))
        import dataclasses

        boosted = load_report(tmp_path / "run")
        boosted.records = [
            dataclasses.replace(
                r,
                scores={
                    k: (v + 0.25 if isinstance(v, float) else v)
                    for k, v in r.scores.items()
                },
            )
            for r in boosted.records
        ]
        rows = compare_runs(boosted, report, resamples=1000, seed=0)
        for row in rows:
            assert row["p_value"] == 0.0
            assert row["significant"]

    @pytest.mark.parametrize("n", [1, 30])
    def test_rows_equal_per_metric_bootstrap_on_reordered_b(self, n):
        rng = np.random.default_rng(n)
        values = [0.0, 1 / 7, 1 / 3, 1 / 2, 2 / 3, 1.0]

        def report(ids):
            records = [
                ExampleRecord(
                    example_id=i,
                    prompt_sha256="",
                    shot_ids=(),
                    answers=(),
                    raw_text="",
                    scores={key: float(rng.choice(values)) for key in SCORE_KEYS},
                )
                for i in ids
            ]
            return EvalReport(records=records, aggregates={})

        ids = [f"e{i}" for i in range(n)]
        a = report(ids)
        b = report(ids[::-1])
        by_id_b = {r.example_id: r for r in b.records}
        expected = []
        for key in SCORE_KEYS:
            scores_a = [r.scores[key] for r in a.records]
            scores_b = [by_id_b[i].scores[key] for i in ids]
            p_value = paired_bootstrap(scores_a, scores_b, resamples=1000, seed=5)
            mean_a = sum(scores_a) / n
            mean_b = sum(scores_b) / n
            expected.append(
                {
                    "metric": key,
                    "mean_a": mean_a,
                    "mean_b": mean_b,
                    "delta": mean_a - mean_b,
                    "p_value": p_value,
                    "significant": p_value <= 0.05,
                }
            )
        assert compare_runs(a, b, resamples=1000, seed=5) == expected


class TestAdherenceThroughHarness:
    def test_copycat_alphabet_phi_100(self, tmp_path):
        paths = build_copycat_rig(tmp_path / "rig")
        config = RunConfig(
            train_path=paths["train"],
            eval_path=paths["eval"],
            embeddings_path=paths["embeddings"],
            backend=f"mock:{paths['mock']}",
            out_dir=str(tmp_path / "out"),
            ordering="alphabet",
            k=1,
            seed=0,
        )
        report = run_eval(config)
        assert report.aggregates["phi_alphabet"] == 100.0
        again = adherence_from_report(tmp_path / "out", "alphabet")
        assert again.phi == 100.0

    def test_adherence_from_report_rederives_prompts(self, tmp_path):
        paths = build_copycat_rig(tmp_path / "rig")
        config = RunConfig(
            train_path=paths["train"],
            eval_path=paths["eval"],
            embeddings_path=paths["embeddings"],
            backend=f"mock:{paths['mock']}",
            out_dir=str(tmp_path / "out"),
            ordering="greedy",
            k=1,
            seed=0,
        )
        report = run_eval(config)
        # the copy mock echoes the greedy shot ordering, so phi(greedy) is 100
        assert report.aggregates["phi_greedy"] == 100.0
        result = adherence_from_report(tmp_path / "out", "greedy")
        assert result.phi == 100.0
        reverse = adherence_from_report(tmp_path / "out", "reverse_greedy")
        assert reverse.phi == 0.0

    def test_adherence_from_report_retrieves_no_query_shots(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        report = run_eval(toy_config(fixtures_dir, out, ordering="greedy"))

        def no_retrieval(*args, **kwargs):
            raise AssertionError("adherence retrieved a query's shots")

        monkeypatch.setattr(harness, "retrieve", no_retrieval)
        result = adherence_from_report(out, "greedy")
        assert result.phi == report.aggregates["phi_greedy"]

    def test_data_error_while_scoring_adherence_raises(self, fixtures_dir, tmp_path, monkeypatch):
        # the model fails only when scoring answers after an eval query's prompt,
        # which only adherence does; shot ordering scores after peer prefixes
        evals = load_dataset(fixtures_dir / "toy_eval.jsonl", split="dev")
        query_ends = tuple(f"Question: {ex.question}\nAnswers:" for ex in evals)

        class AdherenceFails(CountingModel):
            def score_continuation(self, context, continuation):
                if context.endswith(query_ends):
                    raise DataError("reply names no tokens")
                return super().score_continuation(context, continuation)

        def failing_backend(spec, cache_dir=None):
            return AdherenceFails(make_backend(spec, cache_dir))

        monkeypatch.setattr(harness, "make_backend", failing_backend)
        out = tmp_path / "out"
        with pytest.raises(DataError, match="names no tokens"):
            run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        assert len(load_report(out).records) == 3
        assert not (out / SUMMARY_FILE).exists()

    def test_no_comparable_pairs_skips_adherence(self, fixtures_dir, tmp_path):
        # one generated token is at most one answer, so no prediction has a pair
        config = toy_config(fixtures_dir, tmp_path / "out", ordering="greedy", max_tokens=1)
        report = run_eval(config)
        assert all(len(r.answers) <= 1 for r in report.records)
        assert "phi_greedy" not in report.aggregates
        assert report.manifest["counts"]["adherence_skipped"] == 3
        assert load_report(tmp_path / "out").aggregates == report.aggregates

    def test_random_raises_before_planning_any_prompt(self, fixtures_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy"))
        planned = []
        prompt = harness._PromptPlanner.prompt

        def counting_prompt(self, record):
            planned.append(record.example_id)
            return prompt(self, record)

        monkeypatch.setattr(harness._PromptPlanner, "prompt", counting_prompt)
        with pytest.raises(DataError, match="random strategy"):
            adherence_from_report(out, "random")
        assert planned == []
        assert adherence_from_report(out, "greedy").phi == 100.0
        assert planned == ["e1", "e2", "e3"]

    def test_edited_training_answers_detected(self, fixtures_dir, tmp_path):
        train = tmp_path / "train.jsonl"
        text = (fixtures_dir / "toy_train.jsonl").read_text(encoding="utf-8")
        train.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        run_eval(toy_config(fixtures_dir, out, ordering="greedy", train_path=str(train)))
        edited = text.replace('["ada lenz"]', '["ada lenz", "bo lenz"]')
        assert edited != text
        train.write_text(edited, encoding="utf-8")
        with pytest.raises(DataError, match="does not match"):
            adherence_from_report(out, "greedy")


class TestAdherenceForRecords:
    def record(self, example_id, answers):
        return ExampleRecord(example_id, "0" * 64, (), tuple(answers), "", {})

    def test_model_strategies_skip_a_prediction_of_20_answers(self, uniform_mock):
        small = self.record("e1", ["b", "a"])
        big = self.record("e2", [f"a{i:02d}" for i in range(20)])
        prompts = []

        def prompt(record):
            prompts.append(record.example_id)
            return "Answers:"

        alone = adherence_for_records([small], "perplexity", uniform_mock, 0, prompt)
        both = adherence_for_records([small, big], "perplexity", uniform_mock, 0, prompt)
        assert both == alone
        assert both.examples_counted == 1
        assert prompts == ["e1", "e1", "e2"]
        # a strategy without a model reorders any number of answers
        assert adherence_for_records([big], "alphabet", None, 0, None).examples_counted == 1


class TestAnswerCountDeltas:
    def test_alphabet_generates_most(self, tmp_path):
        paths = build_listcont_rig(tmp_path / "rig", seed=0)
        reports = {}
        for strategy in (
            "random",
            "alphabet",
            "greedy",
            "perplexity",
            "reverse_perplexity",
            "reverse_greedy",
        ):
            config = RunConfig(
                train_path=paths["train"],
                eval_path=paths["eval"],
                embeddings_path=paths["embeddings"],
                backend=f"mock:{paths['mock']}",
                out_dir=str(tmp_path / f"out-{strategy}"),
                ordering=strategy,
                k=1,
                seed=0,
                compute_adherence=False,
            )
            reports[strategy] = run_eval(config)
        baseline = reports["random"].aggregates["answer_count"]
        deltas = {
            strategy: report.aggregates["answer_count"] - baseline
            for strategy, report in reports.items()
        }
        lengths = paths["lengths"]
        for strategy, report in reports.items():
            assert report.aggregates["answer_count"] == lengths[strategy]
        assert deltas["random"] == 0.0
        ranked = sorted(deltas, key=deltas.__getitem__, reverse=True)
        assert ranked[0] == "alphabet"
        ordered_values = [deltas[s] for s in ranked]
        assert all(a > b for a, b in zip(ordered_values, ordered_values[1:]))
