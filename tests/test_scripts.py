"""The two scripts under `scripts/`: fixture regeneration and the toy run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from iclforge.cli import cli_dispatch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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
