"""The two scripts under `scripts/` (fixture regeneration and the toy run) and
the names `perfbench/tracing.py` patches in the package."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from iclforge.cli import cli_dispatch
from iclforge.harness import RunConfig, run_eval

REPO = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tsv(text: str) -> dict[str, str]:
    return dict(line.split("\t") for line in text.splitlines())


def test_regenerated_fixtures_equal_the_committed_ones(fixtures_dir, tmp_path, monkeypatch):
    make_fixtures = load_script("make_fixtures")
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    committed = sorted(path.name for path in fixtures_dir.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


def test_toy_run_then_adherence_reprints_its_phi(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_toy_experiment.py", "--out", str(tmp_path)])
    load_script("run_toy_experiment").main()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["alphabet", "greedy", "random"]
    # adherence re-renders each greedy record's prompt from its shot ids
    greedy = tmp_path / "greedy"
    summary = tsv((greedy / "summary.tsv").read_text(encoding="utf-8"))
    capsys.readouterr()
    assert cli_dispatch(["adherence", "--report", str(greedy), "--strategy", "greedy"]) == 0
    assert tsv(capsys.readouterr().out)["phi"] == summary["phi_greedy"]


def test_tracer_patches_each_backend_op_of_each_backend_class(
    fixtures_dir, tmp_path, monkeypatch
):
    # the benchmark's tracer wraps score_continuation, next_token_distribution and
    # generate in each backend class's own body; an op method renamed or inherited
    # fails install, or leaves its calls out of the spans
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # its dataclass looks it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    counts = []
    try:
        tracer.install()
        for run in ("cold", "warm"):
            config = RunConfig(
                train_path=str(fixtures_dir / "toy_train.jsonl"),
                eval_path=str(fixtures_dir / "toy_eval.jsonl"),
                embeddings_path=str(fixtures_dir / "toy_embeddings.jsonl"),
                backend=f"mock:{fixtures_dir / 'mock_toy.json'}",
                out_dir=str(tmp_path / run),
                ordering="greedy",
                cache_dir=str(tmp_path / "cache"),
            )
            counts.append(run_eval(config).manifest["counts"])
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    hits = sum(c["cache_hits"] for c in counts)
    misses = sum(c["cache_misses"] for c in counts)
    assert hits > 0 and misses > 0
    assert sum(name.startswith("lm.cache.") for name in names) == hits + misses
    assert sum(name in ("lm.score", "lm.next_token", "lm.generate") for name in names) == misses
