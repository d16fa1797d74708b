from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from iclforge.cli import cli_dispatch
from iclforge.profiling import load_sets

from rigs import CountingModel, build_knowledge_rig


GOOD_PROFILE = {
    "example_id": "t1",
    "f1_em": 1.0,
    "answer_perplexities": [1.5],
    "avg_similarity": 0.5,
    "model_fingerprint": "mock:0",
}


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def knowledge_files(tmp_path):
    from iclforge.core import save_dataset, save_embeddings

    dataset, table, model = build_knowledge_rig(8, 8, 8)
    train = tmp_path / "train.jsonl"
    embeddings = tmp_path / "emb.jsonl"
    mock = tmp_path / "mock.json"
    save_dataset(dataset, train)
    save_embeddings(table, embeddings)
    mock.write_text(
        json.dumps(
            {
                "vocab": list(model.vocab),
                "rules": [
                    {"context_suffix": r.context_suffix, "token": r.token, "weight": r.weight}
                    for r in model.rules
                ],
            }
        ),
        encoding="utf-8",
    )
    return {"train": str(train), "embeddings": str(embeddings), "mock": f"mock:{mock}"}


class TestValidate:
    def test_well_formed_files(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "validate",
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--eval", str(fixtures_dir / "toy_eval.jsonl"),
            "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
        )
        assert code == 0
        assert out.count("ok:") == 3

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "icl-forge/v1"}\n{broken\n', encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", "--train", str(bad))
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize(
        "flag, body, message",
        [
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n{"id": "t\xff"}\n',
                "line 2: not valid UTF-8",
                id="non-utf8",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n["t1", "q", ["a"]]\n',
                "line 2: record is not",
                id="dataset-array",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n["t1", [1.0]]\n',
                "line 2: record is not",
                id="embedding-array",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n{"id": "t1", "question": "q", "answers": 5}\n',
                "line 2: answers must be a list",
                id="answers-a-number",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n{"id": "t1", "question": "q", "answers": "boston"}\n',
                "line 2: answers must be a list",
                id="answers-a-string",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n{"id": "t1", "question": null, "answers": ["a"]}\n',
                "line 2: question must be a string, got null",
                id="question-null",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n{"id": "t1", "question": "q", "answers": ["a", 7]}\n',
                "line 2: answer must be a string, got 7",
                id="answer-a-number",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n'
                b'{"id": "t1", "question": "q", "answers": ["a"], "category": 3}\n',
                "line 2: category must be a string, got 3",
                id="category-a-number",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n{"id": 1, "question": "q", "answers": ["a"]}\n',
                "line 2: id must be a string, got 1",
                id="id-a-number",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": 1, "vector": [1.0]}\n',
                "line 2: id must be a string, got 1",
                id="embedding-id-a-number",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [1.0, 0.5]}\n'
                b'{"id": "b", "vector": [1.0, NaN]}\n',
                "line 3: vector[1] must be a finite number, got NaN",
                id="embedding-nan",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [1.0, Infinity]}\n',
                "line 2: vector[1] must be a finite number, got Infinity",
                id="embedding-infinity",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": ["1.5", 0.5]}\n',
                'line 2: vector[0] must be a finite number, got "1.5"',
                id="embedding-a-string",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.5, 0.25]}\n'
                b'{"id": "b", "vector": [true, false]}\n',
                "line 3: vector[0] must be a finite number, got true",
                id="embedding-a-bool",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.5, 0.25]}\n'
                b'{"id": "b", "vector": [0.5, true]}\n',
                "line 3: vector[1] must be a finite number, got true",
                id="embedding-a-bool-among-floats",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [1, true]}\n',
                "line 2: vector[1] must be a finite number, got true",
                id="embedding-a-bool-among-ints",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.0, false]}\n',
                "line 2: vector[1] must be a finite number, got false",
                id="embedding-false-among-floats",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [[1.0], [2.0]]}\n',
                "line 2: vector[0] must be a finite number, got [1.0]",
                id="embedding-nested",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [1e999]}\n',
                "line 2: vector[0] must be a finite number, got Infinity",
                id="embedding-overflow",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [1' + b"0" * 400 + b']}\n',
                "line 2: vector[0] must be a finite number, got 1000",
                id="embedding-int-beyond-float",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.5, 0.25, 0.125, 1.5]}\n'
                b'{"id": "b", "vector": [0.5, 0.75, 2, "x"]}\n',
                'line 3: vector[3] must be a finite number, got "x"',
                id="embedding-a-string-after-good-elements",
            ),
            pytest.param(
                "--embeddings",
                # float() of it is the largest float, but the int itself is beyond it
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.5, 0.25]}\n'
                b'{"id": "b", "vector": [0.5, %d]}\n' % (int(sys.float_info.max) + 1),
                "line 3: vector[1] must be a finite number, got 17976931348623157",
                id="embedding-int-rounding-to-the-largest-float",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n'
                b'{"id": "t1", "question": "q\\ud800", "answers": ["a"]}\n',
                "line 2: lone surrogate escape \\ud800",
                id="question-lone-surrogate",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n'
                b'{"id": "t1", "question": "q", "answers": ["a"], "n": 1%s}\n' % (b"0" * 4999),
                "line 2: malformed JSON: Exceeds the limit",
                id="dataset-int-beyond-the-digit-limit",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.5, 1%s]}\n' % (b"0" * 4999),
                "line 2: malformed JSON: Exceeds the limit",
                id="embedding-int-beyond-the-digit-limit",
            ),
            pytest.param(
                "--train",
                b'{"format": "icl-forge/v1"}\n%s%s\n' % (b"[" * 100_000, b"]" * 100_000),
                "line 2: malformed JSON: maximum recursion depth exceeded",
                id="deep-nesting",
            ),
            pytest.param(
                "--embeddings",
                b'{"format": "icl-forge/v1"}\n{"id": "a", "vector": [0.5, 0.25]}\n'
                b'{"id": "b", "vector": [1e200, 1e200]}\n',
                "the squared norm of vector 'b' is beyond the float range",
                id="embedding-squared-norm-beyond-the-float-range",
            ),
        ],
    )
    def test_malformed_input_exits_2(self, capsys, tmp_path, flag, body, message):
        path = tmp_path / "input.jsonl"
        path.write_bytes(body)
        code, _, err = run_cli(capsys, "validate", flag, str(path))
        assert code == 2
        assert f"data error: {path}: {message}" in err

    def test_nothing_to_do_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--bogus")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("command", ["retrieve", "profile"])
    def test_k_below_one_is_a_usage_error(self, capsys, fixtures_dir, tmp_path, command, k):
        out_dir = tmp_path / "out"
        extra = {
            "retrieve": ["--eval", str(fixtures_dir / "toy_eval.jsonl"), "--id", "e1"],
            "profile": [
                "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}", "--out", str(out_dir)
            ],
        }[command]
        code, out, err = run_cli(
            capsys,
            command,
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
            "--k", k,
            *extra,
        )
        assert code == 1
        assert f"usage error: --k must be at least 1, got {k}" in err
        assert out == ""
        assert not out_dir.exists()


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-sets", "0"], "--n-sets must be at least 1, got 0"),
            (["--set-size", "0"], "--set-size must be at least 1, got 0"),
            (["--median-n", "0"], "--median-n must be at least 1, got 0"),
            (["--band", "0.6,0.4"], "bad --band '0.6,0.4'"),
            (["--band", "nan,0.4"], "bad --band 'nan,0.4'"),
            (["--band", "0.4,inf"], "bad --band '0.4,inf'"),
            (["--band", "0.4"], "bad --band '0.4'"),
        ],
    )
    def test_build_sets_flags_out_of_range(self, capsys, tmp_path, flags, message):
        # the profile store does not exist: the flags are checked before it is read
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            "build-sets",
            "--profiles", str(tmp_path / "missing.jsonl"),
            "--condition", "halfknown",
            "--out", str(out_dir),
            *flags,
        )
        assert code == 1
        assert f"usage error: {message}" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("resamples", ["5", "999", "-1"])
    def test_compare_resamples_below_the_minimum(self, capsys, tmp_path, resamples):
        # neither report exists: the flag is checked before either is read
        code, out, err = run_cli(
            capsys,
            "compare",
            "--report-a", str(tmp_path / "a"),
            "--report-b", str(tmp_path / "b"),
            "--resamples", resamples,
        )
        assert code == 1
        assert f"usage error: --resamples must be at least 1000, got {resamples}" in err
        assert out == ""


class TestOrder:
    def test_alphabet_order_prints_answers(self, capsys, tmp_path):
        train = tmp_path / "train.jsonl"
        train.write_text(
            '{"format": "icl-forge/v1"}\n'
            + json.dumps({"id": "q1", "question": "fruit?", "answers": ["banana", "Apple"]})
            + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "order", "--train", str(train), "--id", "q1", "--strategy", "alphabet"
        )
        assert code == 0
        assert out.strip() == "Apple | banana"

    def test_model_strategy_requires_backend(self, capsys, tmp_path):
        train = tmp_path / "train.jsonl"
        train.write_text(
            '{"format": "icl-forge/v1"}\n'
            + json.dumps({"id": "q1", "question": "q?", "answers": ["a", "b"]})
            + "\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(
            capsys, "order", "--train", str(train), "--id", "q1", "--strategy", "greedy"
        )
        assert code == 1
        assert "--backend" in err

    def test_greedy_order_via_backend(self, capsys, knowledge_files):
        code, out, _ = run_cli(
            capsys,
            "order",
            "--train", knowledge_files["train"],
            "--id", "p000",
            "--strategy", "greedy",
            "--backend", knowledge_files["mock"],
            "--embeddings", knowledge_files["embeddings"],
        )
        assert code == 0
        assert out.strip() == "g000x | g000y"

    def test_k_zero_orders_against_the_bare_query(self, capsys, knowledge_files):
        from iclforge.core import load_dataset
        from iclforge.lm import make_backend
        from iclforge.ordering import strategy_permutation
        from iclforge.prompting import render_prompt

        example = load_dataset(knowledge_files["train"]).by_id("p000")
        model = make_backend(knowledge_files["mock"])
        permutation = strategy_permutation(
            "reverse_perplexity",
            example.answers,
            prefix=render_prompt([], example.question),
            model=model,
        )
        code, out, _ = run_cli(
            capsys,
            "order",
            "--train", knowledge_files["train"],
            "--id", "p000",
            "--strategy", "reverse_perplexity",
            "--backend", knowledge_files["mock"],
            "--embeddings", knowledge_files["embeddings"],
            "--k", "0",
        )
        assert code == 0
        assert out.strip() == " | ".join(example.answers[i] for i in permutation)

    @pytest.mark.parametrize("strategy", ["alphabet", "greedy"])
    def test_oversized_shot_prints_gold_order(self, capsys, fixtures_dir, tmp_path, strategy):
        # a shot of 20 or more answers keeps its gold order in every eval prompt
        gold = [f"pebble {i:02d}" for i in reversed(range(25))]
        big = {"id": "t9", "question": "which pebbles line the long shore?", "answers": gold}
        train = tmp_path / "train.jsonl"
        text = (fixtures_dir / "toy_train.jsonl").read_text(encoding="utf-8")
        train.write_text(text + json.dumps(big) + "\n", encoding="utf-8")
        embeddings = tmp_path / "emb.jsonl"
        text = (fixtures_dir / "toy_embeddings.jsonl").read_text(encoding="utf-8")
        vector = {"id": "t9", "vector": [2.0, 2.0, 2.0, 2.0]}
        embeddings.write_text(text + json.dumps(vector) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "order",
            "--train", str(train),
            "--id", "t9",
            "--strategy", strategy,
            "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
            "--embeddings", str(embeddings),
        )
        assert (code, err) == (0, "")
        assert out.strip() == " | ".join(gold)

    @pytest.mark.parametrize("strategy", ["perplexity", "greedy"])
    def test_mock_weights_summing_beyond_the_float_range_exit_2(
        self, capsys, fixtures_dir, tmp_path, strategy
    ):
        # t1's answers are "meadow river" and "stone river"
        fixture = tmp_path / "mock.json"
        rules = [
            {"context_suffix": "Answers:", "token": token, "weight": 1.7e308}
            for token in ("meadow", "stone")
        ]
        fixture.write_text(
            json.dumps({"vocab": ["meadow", "stone", "river", "|"], "rules": rules}),
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys,
            "order",
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--id", "t1",
            "--strategy", strategy,
            "--backend", f"mock:{fixture}",
            "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
        )
        assert (code, out) == (2, "")
        assert (
            f"data error: {fixture}: rule weights for context_suffix 'Answers:' sum beyond "
            "the float range or leave a token a probability of 0"
        ) in err

    @pytest.mark.parametrize("k", ["0", "5"])
    @pytest.mark.parametrize("strategy", ["perplexity", "greedy"])
    def test_prints_a_permutation_of_each_toy_example(self, capsys, fixtures_dir, strategy, k):
        from iclforge.core import load_dataset

        for example in load_dataset(fixtures_dir / "toy_train.jsonl"):
            code, out, err = run_cli(
                capsys,
                "order",
                "--train", str(fixtures_dir / "toy_train.jsonl"),
                "--id", example.id,
                "--strategy", strategy,
                "--k", k,
                "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
                "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
            )
            assert (code, err) == (0, "")
            assert sorted(out.rstrip("\n").split(" | ")) == sorted(example.answers)

    def test_negative_k_is_a_usage_error(self, capsys, knowledge_files):
        code, out, err = run_cli(
            capsys,
            "order",
            "--train", knowledge_files["train"],
            "--id", "p000",
            "--strategy", "reverse_perplexity",
            "--backend", knowledge_files["mock"],
            "--embeddings", knowledge_files["embeddings"],
            "--k", "-1",
        )
        assert code == 1
        assert "usage error: --k must be at least 0, got -1" in err
        assert out == ""


class TestRetrieve:
    def test_prints_k_shots(self, capsys, fixtures_dir):
        from iclforge.core import load_dataset

        # each eval id's nearest training example, which only random may leave out
        nearest = {"e1": "t1", "e2": "t3", "e3": "t5"}
        for query in load_dataset(fixtures_dir / "toy_eval.jsonl", "dev"):
            for retrieval in ("similar", "diverse", "topical", "random"):
                code, out, _ = run_cli(
                    capsys,
                    "retrieve",
                    "--train", str(fixtures_dir / "toy_train.jsonl"),
                    "--eval", str(fixtures_dir / "toy_eval.jsonl"),
                    "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
                    "--id", query.id,
                    "--retrieval", retrieval,
                    "--k", "5",
                )
                assert code == 0
                lines = out.strip().splitlines()
                assert len(lines) == 5
                # ascending similarity; most similar shot printed last
                sims = [float(line.split("\t")[1]) for line in lines]
                assert sims == sorted(sims)
                if retrieval != "random":
                    assert lines[-1].startswith(f"{nearest[query.id]}\t")


class TestProfileAndBuildSets:
    def test_profile_then_build_sets(self, capsys, knowledge_files, tmp_path):
        profile_dir = tmp_path / "profiles"
        code, out, _ = run_cli(
            capsys,
            "profile",
            "--train", knowledge_files["train"],
            "--embeddings", knowledge_files["embeddings"],
            "--backend", knowledge_files["mock"],
            "--out", str(profile_dir),
        )
        assert code == 0
        assert (profile_dir / "profiles.jsonl").exists()
        manifest = json.loads((profile_dir / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["input_sha256"]) == ["embeddings", "train"]
        train_bytes = Path(knowledge_files["train"]).read_bytes()
        assert manifest["input_sha256"]["train"] == hashlib.sha256(train_bytes).hexdigest()

        sets_dir = tmp_path / "sets"
        code, out, _ = run_cli(
            capsys,
            "build-sets",
            "--profiles", str(profile_dir / "profiles.jsonl"),
            "--condition", "unknown",
            "--n-sets", "1",
            "--set-size", "5",
            "--out", str(sets_dir),
        )
        assert code == 0
        sets_file = sets_dir / "sets.jsonl"
        assert sets_file.exists()
        record = json.loads(sets_file.read_text(encoding="utf-8").splitlines()[0])
        assert record["condition"] == "unknown"
        assert len(record["member_ids"]) == 5
        manifest = json.loads((sets_dir / "manifest.json").read_text(encoding="utf-8"))
        store_bytes = (profile_dir / "profiles.jsonl").read_bytes()
        assert manifest["input_sha256"] == {"profiles": hashlib.sha256(store_bytes).hexdigest()}

    def test_profile_refuses_embeddings_whose_squared_norms_overflow(
        self, capsys, fixtures_dir, tmp_path
    ):
        # every element finite, but 1e200 squared is beyond the float range: the
        # store would hold an avg_similarity of Infinity, which is not JSON
        from iclforge.core import load_dataset

        ids = load_dataset(fixtures_dir / "toy_train.jsonl").ids()
        embeddings = tmp_path / "emb.jsonl"
        embeddings.write_text(
            '{"format": "icl-forge/v1"}\n'
            + "".join(json.dumps({"id": i, "vector": [1e200] * 4}) + "\n" for i in ids),
            encoding="utf-8",
        )
        out = tmp_path / "profiles"
        code, _, err = run_cli(
            capsys,
            "profile",
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--embeddings", str(embeddings),
            "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
            "--out", str(out),
        )
        assert code == 2
        message = f"{embeddings}: the squared norm of vector '{ids[0]}' is beyond the float range"
        assert f"data error: {message}" in err
        assert not (out / "profiles.jsonl").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_profile_refuses_to_write_an_average_similarity_that_overflows(
        self, capsys, fixtures_dir, tmp_path, monkeypatch
    ):
        # each squared norm, and so each similarity, is finite (1.69e308), but the
        # mean of five of them overflows: the first example is refused before any
        # backend call, and numpy warns of nothing
        from iclforge import harness
        from iclforge.core import load_dataset
        from iclforge.lm import make_backend

        built: list[CountingModel] = []

        def counting_backend(spec, cache_dir=None):
            built.append(CountingModel(make_backend(spec, cache_dir)))
            return built[-1]

        monkeypatch.setattr(harness, "make_backend", counting_backend)
        ids = load_dataset(fixtures_dir / "toy_train.jsonl").ids()
        embeddings = tmp_path / "emb.jsonl"
        embeddings.write_text(
            '{"format": "icl-forge/v1"}\n'
            + "".join(json.dumps({"id": i, "vector": [1.3e154]}) + "\n" for i in ids),
            encoding="utf-8",
        )
        out = tmp_path / "profiles"
        code, _, err = run_cli(
            capsys,
            "profile",
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--embeddings", str(embeddings),
            "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
            "--out", str(out),
        )
        assert code == 2
        message = "example 't1': its average similarity to the pool is beyond the float range"
        assert err == f"data error: {message}\n"
        assert sum(built[0].counts.values()) == 0
        assert not (out / "profiles.jsonl").exists()

    def test_manifests_key_for_key(self, capsys, knowledge_files, tmp_path):
        profile_dir, sets_dir = tmp_path / "profiles", tmp_path / "sets"
        run_cli(
            capsys,
            "profile",
            "--train", knowledge_files["train"],
            "--embeddings", knowledge_files["embeddings"],
            "--backend", knowledge_files["mock"],
            "--out", str(profile_dir),
        )
        run_cli(
            capsys,
            "build-sets",
            "--profiles", str(profile_dir / "profiles.jsonl"),
            "--condition", "unknown",
            "--n-sets", "1",
            "--set-size", "5",
            "--out", str(sets_dir),
        )
        manifests = [
            json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            for out in (profile_dir, sets_dir)
        ]
        for manifest in manifests:
            assert manifest.pop("written_at")
        assert manifests[0] == {
            "tool_version": "0.1.0",
            "command": "profile",
            "model_fingerprint": "mock:26a794f520d4ac11",
            "k": 5,
            "input_sha256": {
                "train": "66b1b6e9704ac013ca3255cbc3ad9dcd4461e404a61cd77eda2d9be9d64b47f3",
                "embeddings": "458c930555c84356364c4ec1119f1aa3aca6de2927f421e2abda759f5869ab7d",
            },
            "counts": {
                "profiled": 24,
                "cache_hits": None,
                "cache_misses": None,
                "generation_cap_hits": 0,
            },
        }
        assert manifests[1] == {
            "tool_version": "0.1.0",
            "command": "build-sets",
            "condition": "unknown",
            "seed": 0,
            "input_sha256": {
                "profiles": "0da8263a4df62c1a0f9bdcd6e6f7b12441b2a4e1350b10ea6aa83e4c25fdbdf8",
            },
            "model_fingerprint": "mock:26a794f520d4ac11",
            "counts": {"eligible": 8, "sets": 1, "set_size": 5},
            "fallback_used": False,
            "fallback_threshold": None,
        }

    def test_profile_rerun_through_one_cache_hits_every_call(self, capsys, fixtures_dir, tmp_path):
        counts, stores = [], []
        for run in (1, 2):
            out = tmp_path / f"profile-{run}"
            code, stdout, _ = run_cli(
                capsys,
                "profile",
                "--train", str(fixtures_dir / "toy_train.jsonl"),
                "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
                "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            )
            assert code == 0
            assert stdout == f"profiled 6 examples -> {out / 'profiles.jsonl'}\n"
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            counts.append(manifest["counts"])
            stores.append((out / "profiles.jsonl").read_bytes())
        assert stores[0] == stores[1]
        assert counts[0]["cache_hits"] == 0 and counts[0]["cache_misses"] > 0
        assert counts[1]["cache_hits"] == counts[0]["cache_misses"]
        assert counts[1]["cache_misses"] == 0

    def test_store_of_two_models_exits_2(self, capsys, tmp_path):
        store = tmp_path / "profiles.jsonl"
        lines = [
            {**GOOD_PROFILE, "example_id": "t1", "model_fingerprint": "mock:a"},
            {**GOOD_PROFILE, "example_id": "t2", "model_fingerprint": "mock:a"},
            {**GOOD_PROFILE, "example_id": "t3", "model_fingerprint": "mock:b"},
        ]
        store.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "sets"
        code, _, err = run_cli(
            capsys,
            "build-sets",
            "--profiles", str(store),
            "--condition", "random",
            "--n-sets", "1",
            "--set-size", "2",
            "--out", str(out),
        )
        assert code == 2
        assert str(store) in err and "'mock:a'" in err and "'mock:b'" in err
        assert not out.exists()

    def test_profile_out_naming_a_file_exits_1(self, capsys, knowledge_files, tmp_path):
        out = tmp_path / "afile"
        out.write_text("kept\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "profile",
            "--train", knowledge_files["train"],
            "--embeddings", knowledge_files["embeddings"],
            "--backend", knowledge_files["mock"],
            "--out", str(out),
        )
        assert code == 1
        assert f"usage error: cannot make output directory {out}" in err
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_profile_out_naming_a_file_is_checked_before_any_input(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        out = tmp_path / "afile"
        out.write_text("kept\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "profile",
            "--train", str(missing / "train.jsonl"),
            "--embeddings", str(missing / "emb.jsonl"),
            "--backend", f"mock:{missing / 'mock.json'}",
            "--out", str(out),
        )
        assert code == 1
        assert f"usage error: cannot make output directory {out}" in err
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_build_sets_out_naming_a_file_exits_1(self, capsys, tmp_path):
        store = tmp_path / "profiles.jsonl"
        lines = [{**GOOD_PROFILE, "example_id": f"t{i}"} for i in range(3)]
        store.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "afile"
        out.write_text("kept\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "build-sets",
            "--profiles", str(store),
            "--condition", "random",
            "--n-sets", "1",
            "--set-size", "2",
            "--out", str(out),
        )
        assert code == 1
        assert f"usage error: cannot make output directory {out}" in err
        assert out.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-sets", "--profiles", "{missing}", "--condition", "known", "--out", "{out}"],
            ["eval", "--fixed-set", "{missing}"],
        ],
        ids=["build-sets-profiles", "eval-fixed-set"],
    )
    def test_missing_store_exits_2(self, capsys, tmp_path, argv):
        missing = tmp_path / "absent.jsonl"
        argv = [a.format(missing=missing, out=tmp_path / "out") for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "cannot read" in err and str(missing) in err

    @pytest.mark.parametrize(
        "command, line, message",
        [
            pytest.param(
                "build-sets",
                '{"example_id": 7, "f1_em": true, "answer_perplexities": ["x"], '
                '"avg_similarity": "0.5", "model_fingerprint": null}',
                "example_id must be a string, got 7",
                id="profile-coerced-fields",
            ),
            *(
                pytest.param(
                    "build-sets",
                    json.dumps({**GOOD_PROFILE, field: value}),
                    message,
                    id=f"profile-{field}",
                )
                for field, value, message in [
                    ("f1_em", True, "f1_em must be a finite number, got true"),
                    ("answer_perplexities", "12", 'answer_perplexities must be a list, got "12"'),
                    (
                        "answer_perplexities",
                        ["x"],
                        'answer_perplexities[0] must be a finite number, got "x"',
                    ),
                    ("avg_similarity", "0.5", 'avg_similarity must be a finite number, got "0.5"'),
                    ("model_fingerprint", None, "model_fingerprint must be a string, got null"),
                ]
            ),
            pytest.param(
                "eval",
                '{"condition": "known", "member_ids": [1, 2], "seed": 1.9}',
                "member_ids[0] must be a string, got 1",
                id="set-coerced-fields",
            ),
            pytest.param(
                "eval",
                '{"condition": "known", "member_ids": ["t1"], "seed": 1.9}',
                "seed must be an int, got 1.9",
                id="set-seed-a-float",
            ),
            pytest.param(
                "eval",
                '{"condition": "bogus", "member_ids": ["t1"], "seed": 0}',
                "condition must be one of unknown, random, halfknown, known, got 'bogus'",
                id="set-condition-unknown",
            ),
            pytest.param(
                "eval",
                '{"condition": "known", "member_ids": [], "seed": 0}',
                "member_ids is empty",
                id="set-members-empty",
            ),
            pytest.param(
                "eval",
                '{"condition": "known", "member_ids": ["t1", "t1"], "seed": 0}',
                "member_ids repeats an id: ['t1', 't1']",
                id="set-member-repeated",
            ),
        ],
    )
    def test_malformed_store_exits_2(self, capsys, tmp_path, command, line, message):
        path = tmp_path / "store.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        if command == "build-sets":
            argv = ["build-sets", "--profiles", str(path), "--condition", "known",
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["eval", "--fixed-set", str(path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"data error: {path}: line 1: {message}" in err

    def test_insufficient_candidates_exits_2(self, capsys, knowledge_files, tmp_path):
        profile_dir = tmp_path / "profiles"
        run_cli(
            capsys,
            "profile",
            "--train", knowledge_files["train"],
            "--embeddings", knowledge_files["embeddings"],
            "--backend", knowledge_files["mock"],
            "--out", str(profile_dir),
        )
        code, _, err = run_cli(
            capsys,
            "build-sets",
            "--profiles", str(profile_dir / "profiles.jsonl"),
            "--condition", "unknown",
            "--n-sets", "10",
            "--set-size", "10",
            "--out", str(tmp_path / "sets"),
        )
        assert code == 2
        assert "qualifying" in err


class TestEvalAndReports:
    def eval_args(self, fixtures_dir, out_dir, *extra):
        return [
            "eval",
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--eval", str(fixtures_dir / "toy_eval.jsonl"),
            "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
            "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
            "--out", str(out_dir),
            "--strategy", "alphabet",
            *extra,
        ]

    def test_eval_twice_identical_summary(self, capsys, fixtures_dir, tmp_path):
        code, _, _ = run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a" / "summary.tsv").read_bytes() == (
            tmp_path / "b" / "summary.tsv"
        ).read_bytes()

    def test_report_reproduces_summary(self, capsys, fixtures_dir, tmp_path):
        run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        code, out, _ = run_cli(capsys, "report", "--report", str(tmp_path / "a"))
        assert code == 0
        assert "f1_em" in out

    def test_report_renders_from_records_alone(self, capsys, fixtures_dir, tmp_path):
        run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        _, with_summary, _ = run_cli(capsys, "report", "--report", str(tmp_path / "a"))
        (tmp_path / "a" / "summary.tsv").unlink()
        code, from_records, _ = run_cli(capsys, "report", "--report", str(tmp_path / "a"))
        assert code == 0
        kept = {
            line.split("\t")[0]: line
            for line in from_records.strip().splitlines()
        }
        for line in with_summary.strip().splitlines():
            key = line.split("\t")[0]
            if not key.startswith("phi_"):  # phi needs the model, not just records
                assert kept[key] == line

    def test_torn_records_exit_2_on_report_and_resume_on_eval(
        self, capsys, fixtures_dir, tmp_path
    ):
        run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        records = tmp_path / "a" / "records.jsonl"
        full = records.read_bytes()
        records.write_bytes(full[:-20])
        code, _, err = run_cli(capsys, "report", "--report", str(tmp_path / "a"))
        assert code == 2
        assert "line 3" in err
        code, _, _ = run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        assert code == 0
        assert records.read_bytes() == full

    @pytest.mark.parametrize(
        "command",
        [
            ["compare", "--report-a", "{a}", "--report-b", "{b}"],
            ["adherence", "--report", "{a}", "--strategy", "alphabet"],
        ],
        ids=["compare", "adherence"],
    )
    def test_repeated_example_id_exits_2(self, capsys, fixtures_dir, tmp_path, command):
        for name in ("a", "b"):
            run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / name))
        records = tmp_path / "a" / "records.jsonl"
        records.write_bytes(records.read_bytes() + records.read_bytes().splitlines(True)[1])
        argv = [arg.format(a=tmp_path / "a", b=tmp_path / "b") for arg in command]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "line 4: example id 'e2' repeats line 2" in err

    def test_compare_self_not_significant(self, capsys, fixtures_dir, tmp_path):
        run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--report-a", str(tmp_path / "a"),
            "--report-b", str(tmp_path / "a"),
            "--resamples", "1000",
        )
        assert code == 0
        body = [line for line in out.strip().splitlines()[1:] if line]
        assert body
        for line in body:
            assert line.split("\t")[4] == "1.000000"

    def test_adherence_subcommand(self, capsys, fixtures_dir, tmp_path):
        run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        code, out, _ = run_cli(
            capsys, "adherence", "--report", str(tmp_path / "a"), "--strategy", "alphabet"
        )
        assert code == 0
        assert out.startswith("strategy\talphabet")

    def test_adherence_cache_precedence(self, capsys, fixtures_dir, tmp_path, monkeypatch):
        # --cache-dir, then the manifest's cache_dir, then ICLFORGE_CACHE
        monkeypatch.delenv("ICLFORGE_CACHE", raising=False)
        uncached, cached = tmp_path / "uncached", tmp_path / "cached"
        run_cli(capsys, *self.eval_args(fixtures_dir, uncached))
        run_cli(capsys, *self.eval_args(fixtures_dir, cached, "--cache-dir", str(tmp_path / "rc")))
        env_cache, flag_cache = tmp_path / "env-cache", tmp_path / "flag-cache"
        monkeypatch.setenv("ICLFORGE_CACHE", str(env_cache))

        def adherence(report, *extra):
            code, _, err = run_cli(
                capsys, "adherence", "--report", str(report), "--strategy", "greedy", *extra
            )
            assert code == 0, err

        adherence(cached)
        assert not env_cache.exists()
        adherence(cached, "--cache-dir", str(flag_cache))
        assert any(flag_cache.glob("*.json"))
        assert not env_cache.exists()
        adherence(uncached)
        assert any(env_cache.glob("*.json"))

    @pytest.mark.parametrize(
        "change, message",
        [({"k": "2"}, "bad config: "), ({"colour": "red"}, "bad config: unknown config keys")],
        ids=["k-a-string", "unknown-key"],
    )
    def test_adherence_on_a_bad_manifest_config_exits_2(
        self, capsys, fixtures_dir, tmp_path, change, message
    ):
        out = tmp_path / "a"
        run_cli(capsys, *self.eval_args(fixtures_dir, out))
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["config"].update(change)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, _, err = run_cli(capsys, "adherence", "--report", str(out), "--strategy", "greedy")
        assert code == 2
        assert f"data error: {path}: {message}" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"k": 2.5}, "k must be an int, got 2.5"),
            ({"seed": "0"}, "seed must be an int, got '0'"),
        ],
        ids=["k-a-float", "seed-a-string"],
    )
    def test_adherence_on_a_manifest_config_of_a_wrong_type_exits_2(
        self, capsys, fixtures_dir, tmp_path, change, message
    ):
        out = tmp_path / "a"
        run_cli(capsys, *self.eval_args(fixtures_dir, out))
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["config"].update(change)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, _, err = run_cli(capsys, "adherence", "--report", str(out), "--strategy", "greedy")
        assert code == 2
        assert f"data error: {path}: bad config: {message}" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"k": 2.5}, "k must be an int, got 2.5"),
            ({"seed": "0"}, "seed must be an int, got '0'"),
            ({"train_path": 5}, "train_path must be a string, got 5"),
            ({"cache_dir": 5}, "cache_dir must be a string or null, got 5"),
            ({"fixed_set_ids": ["t1", 2]}, "fixed_set_ids must be a list of strings or null"),
        ],
        ids=[
            "k-a-float", "seed-a-string", "train-path-a-number", "cache-dir-a-number",
            "fixed-set-member-a-number",
        ],
    )
    def test_config_file_field_of_a_wrong_type_exits_1(
        self, capsys, fixtures_dir, tmp_path, change, message
    ):
        config = {
            "train_path": str(fixtures_dir / "toy_train.jsonl"),
            "eval_path": str(fixtures_dir / "toy_eval.jsonl"),
            "embeddings_path": str(fixtures_dir / "toy_embeddings.jsonl"),
            "backend": f"mock:{fixtures_dir / 'mock_toy.json'}",
            "out_dir": str(tmp_path / "out"),
            **change,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--config", str(config_path))
        assert code == 1
        assert f"usage error: {message}" in err
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_overrides(self, capsys, fixtures_dir, tmp_path):
        config = {
            "train_path": str(fixtures_dir / "toy_train.jsonl"),
            "eval_path": str(fixtures_dir / "toy_eval.jsonl"),
            "embeddings_path": str(fixtures_dir / "toy_embeddings.jsonl"),
            "backend": f"mock:{fixtures_dir / 'mock_toy.json'}",
            "out_dir": str(tmp_path / "from-config"),
            "ordering": "random",
            "seed": 3,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, _ = run_cli(capsys, "eval", "--config", str(config_path))
        assert code == 0
        manifest = json.loads(
            (tmp_path / "from-config" / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["config"]["seed"] == 3

    def test_every_flag_sets_its_config_field(self, capsys, fixtures_dir, tmp_path, monkeypatch):
        # precedence: flag, then --config, then ICLFORGE_CACHE
        monkeypatch.setenv("ICLFORGE_CACHE", str(tmp_path / "env-cache"))
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"k": 1, "seed": 9, "ordering_prefix_k": 3, "compute_adherence": True}),
            encoding="utf-8",
        )
        paths = {
            "train_path": str(fixtures_dir / "toy_train.jsonl"),
            "eval_path": str(fixtures_dir / "toy_eval.jsonl"),
            "embeddings_path": str(fixtures_dir / "toy_embeddings.jsonl"),
            "backend": f"mock:{fixtures_dir / 'mock_toy.json'}",
            "out_dir": str(tmp_path / "run"),
            "cache_dir": str(tmp_path / "cache"),
        }
        code, _, err = run_cli(
            capsys,
            "eval",
            "--config", str(config_path),
            "--train", paths["train_path"],
            "--eval", paths["eval_path"],
            "--embeddings", paths["embeddings_path"],
            "--backend", paths["backend"],
            "--retrieval", "topical",
            "--strategy", "alphabet",
            "--k", "2",
            "--seed", "4",
            "--out", paths["out_dir"],
            "--cache-dir", paths["cache_dir"],
            "--jobs", "2",
            "--max-tokens", "32",
            "--eval-split", "dev",
            "--no-adherence",
        )
        assert code == 0, err
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == dict(
            paths,
            retrieval_strategy="topical",
            ordering="alphabet",
            k=2,
            seed=4,
            jobs=2,
            max_tokens=32,
            eval_split="dev",
            fixed_set_ids=None,
            ordering_prefix_k=3,
            compute_adherence=False,
        )
        assert not (tmp_path / "env-cache").exists()

    def test_config_file_not_an_object_exits_1(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--config", str(config_path))
        assert code == 1
        assert "usage error" in err and "not a JSON object" in err

    def test_config_file_nested_too_deeply_exits_1(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--config", str(config_path))
        assert code == 1
        assert f"usage error: {config_path}: malformed JSON: maximum recursion depth" in err

    def test_eval_out_naming_a_file_exits_1(self, capsys, fixtures_dir, tmp_path):
        out = tmp_path / "afile"
        out.write_text("kept\n", encoding="utf-8")
        code, _, err = run_cli(capsys, *self.eval_args(fixtures_dir, out))
        assert code == 1
        assert f"usage error: cannot make output directory {out}" in err
        assert out.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cache_dir_naming_a_file_exits_1(
        self, capsys, fixtures_dir, tmp_path, monkeypatch, via
    ):
        cache = tmp_path / "afile"
        cache.write_text("kept\n", encoding="utf-8")
        if via == "flag":
            monkeypatch.delenv("ICLFORGE_CACHE", raising=False)
            extra = ["--cache-dir", str(cache)]
        else:
            monkeypatch.setenv("ICLFORGE_CACHE", str(cache))
            extra = []
        code, _, err = run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "out", *extra))
        assert code == 1
        assert f"usage error: cannot make cache directory {cache}" in err
        assert cache.read_text(encoding="utf-8") == "kept\n"

    def test_eval_out_naming_a_file_is_checked_before_any_input(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        out = tmp_path / "afile"
        out.write_text("kept\n", encoding="utf-8")
        code, _, err = run_cli(capsys, *self.eval_args(missing, out))
        assert code == 1
        assert f"usage error: cannot make output directory {out}" in err
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_lone_surrogate_in_the_mock_fixture_exits_2(self, capsys, fixtures_dir, tmp_path):
        fixture = tmp_path / "mock.json"
        fixture.write_text('{"vocab": ["a", "\\udc00b"]}', encoding="utf-8")
        args = self.eval_args(fixtures_dir, tmp_path / "out")
        args[args.index("--backend") + 1] = f"mock:{fixture}"
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert f"data error: {fixture}: lone surrogate escape \\udc00" in err

    def test_unknown_eval_split_exits_1_before_any_file_is_read(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        config = {
            "train_path": str(missing / "train.jsonl"),
            "eval_path": str(missing / "eval.jsonl"),
            "embeddings_path": str(missing / "emb.jsonl"),
            "backend": f"mock:{missing / 'mock.json'}",
            "out_dir": str(tmp_path / "out"),
            "eval_split": "bogus",
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--config", str(config_path))
        assert code == 1
        assert "usage error: unknown eval split 'bogus'" in err
        assert not (tmp_path / "out").exists()

    def test_missing_required_settings_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "missing required" in err

    def test_fixed_set_flow(self, capsys, knowledge_files, tmp_path):
        profile_dir = tmp_path / "profiles"
        run_cli(
            capsys,
            "profile",
            "--train", knowledge_files["train"],
            "--embeddings", knowledge_files["embeddings"],
            "--backend", knowledge_files["mock"],
            "--out", str(profile_dir),
        )
        base = [
            "eval",
            "--train", knowledge_files["train"],
            "--eval", knowledge_files["train"],
            "--embeddings", knowledge_files["embeddings"],
            "--backend", knowledge_files["mock"],
            "--eval-split", "dev",
            "--strategy", "alphabet",
        ]
        for condition in ("unknown", "known"):
            sets = tmp_path / condition / "sets.jsonl"
            run_cli(
                capsys,
                "build-sets",
                "--profiles", str(profile_dir / "profiles.jsonl"),
                "--condition", condition,
                "--n-sets", "2",
                "--set-size", "3",
                "--out", str(sets.parent),
            )
            run = tmp_path / condition / "run"
            code, _, _ = run_cli(
                capsys, *base, "--fixed-set", str(sets), "--fixed-set-index", "1", "--out", str(run)
            )
            assert code == 0
            members = load_sets(sets)[1].member_ids
            assert len(members) == 3
            records = (run / "records.jsonl").read_text(encoding="utf-8").splitlines()
            assert records and all(tuple(json.loads(r)["shot_ids"]) == members for r in records)

        code, _, err = run_cli(
            capsys,
            *base,
            "--fixed-set", str(sets),
            "--fixed-set-index", "9",
            "--out", str(tmp_path / "run2"),
        )
        assert code == 1
        assert "out of range" in err

    def test_fixed_set_index_without_fixed_set_exits_1(self, capsys, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.eval_args(fixtures_dir, out, "--fixed-set-index", "7"))
        assert code == 1
        assert "usage error: --fixed-set-index needs --fixed-set" in err
        assert not out.exists()

    def write_two_member_set(self, tmp_path) -> Path:
        path = tmp_path / "sets.jsonl"
        path.write_text('{"condition": "known", "member_ids": ["t1", "t2"], "seed": 0}\n')
        return path

    @pytest.mark.parametrize(
        "extra, config, flag",
        [
            (["--k", "4"], None, "--k"),
            (["--retrieval", "diverse"], None, "--retrieval"),
            ([], {"k": 4}, "--k"),
            ([], {"retrieval_strategy": "diverse"}, "--retrieval"),
        ],
        ids=["k-flag", "retrieval-flag", "k-in-config", "retrieval-in-config"],
    )
    def test_fixed_set_refuses_a_shot_budget_or_retrieval(
        self, capsys, fixtures_dir, tmp_path, extra, config, flag
    ):
        """A fixed set fixes the shots, so nothing may ask for others, flag or config."""
        if config is not None:
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            extra = ["--config", str(config_path)]
        out = tmp_path / "out"
        sets = self.write_two_member_set(tmp_path)
        code, _, err = run_cli(
            capsys, *self.eval_args(fixtures_dir, out, "--fixed-set", str(sets), *extra)
        )
        assert code == 1
        assert f"usage error: --fixed-set and {flag} are mutually exclusive" in err
        assert not out.exists()

    def test_fixed_set_run_records_the_set_size_as_k(self, capsys, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        sets = self.write_two_member_set(tmp_path)
        code, _, _ = run_cli(capsys, *self.eval_args(fixtures_dir, out, "--fixed-set", str(sets)))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["k"] == 2
        assert manifest["config"]["fixed_set_ids"] == ["t1", "t2"]
        records = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert {tuple(json.loads(r)["shot_ids"]) for r in records} == {("t1", "t2")}

    def test_cache_env_var(self, capsys, fixtures_dir, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("ICLFORGE_CACHE", str(cache))
        code, _, _ = run_cli(capsys, *self.eval_args(fixtures_dir, tmp_path / "a"))
        assert code == 0
        assert any(cache.glob("*.json"))
