"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from iclforge.cli import cli_dispatch
from iclforge.core import Example, Prediction
from iclforge.harness import RECORDS_FILE, SUMMARY_FILE, RunConfig, run_eval
from iclforge.lm import DEFAULT_FLOOR, MockModel, MockRule
from iclforge.metrics import (
    adherence_phi,
    paired_bootstrap,
    set_scores,
    strategy_ranks,
)
from iclforge.ordering import alphabet_permutation, answer_perplexity, strategy_permutation
from iclforge.profiling import build_sets, profile_dataset
from iclforge.prompting import parse_answers, render_prompt
from iclforge.retrieval import Pool, RetrievalConfig, retrieve

from oracles import oracle_greedy_order, oracle_set_scores, oracle_top_k
from rigs import build_copycat_rig, build_knowledge_rig, build_listcont_rig
from test_ordering import random_fixture

SYMBOLS = [f"s{i}" for i in range(10)]


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    def random_answer():
        return " ".join(rng.choice(SYMBOLS, size=int(rng.integers(1, 4))))

    for _ in range(1000):
        pred = [random_answer() for _ in range(int(rng.integers(0, 7)))]
        gold = [random_answer() for _ in range(int(rng.integers(1, 7)))]
        for matcher in ("exact", "token_f1"):
            got = set_scores(pred, gold, matcher=matcher)
            p, r, f1 = oracle_set_scores(pred, gold, matcher)
            assert abs(got.precision - float(p)) <= 1e-12
            assert abs(got.recall - float(r)) <= 1e-12
            assert abs(got.f1 - float(f1)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"set_scores matches the brute-force oracle on 1000 random pairs ({elapsed:.2f}s)")


def test_criterion_02_greedy_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(100):
        vocab, rules, answers = random_fixture(rng)
        model = MockModel(vocab, tuple(MockRule(*r) for r in rules))
        got = strategy_permutation("greedy", answers, prefix="p:", model=model)
        expected = oracle_greedy_order(vocab, rules, DEFAULT_FLOOR, "p:", answers)
        assert got == expected, (vocab, rules, answers)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(2, f"greedy ordering matches exhaustive simulation on 100 rule tables ({elapsed:.2f}s)")


def test_criterion_03_perplexity_identities():
    for vocab_size in (2, 5, 9):
        uniform = MockModel([f"t{i}" for i in range(vocab_size)])
        for answer in ("t0", "t1 t0", "t0 t0 t0"):
            pp = answer_perplexity("any prefix", answer, uniform)
            assert abs(pp - vocab_size) <= 1e-6
    certain = MockModel(["w", "x", "y", "z", "v"], (MockRule("", "w", 1.0),))
    pp = answer_perplexity("", "w w", certain)
    assert abs(pp - 1.0) <= 1e-4
    ok(3, "uniform mock gives PP = |V| and the certainty fixture gives PP = 1")


def test_criterion_04_phi_bounds_and_reversal():
    def reorder(pred: Prediction):
        return strategy_ranks(pred.answers, alphabet_permutation(pred.answers))

    def reorder_reverse(pred: Prediction):
        return strategy_ranks(pred.answers, alphabet_permutation(pred.answers)[::-1])

    ordered = [
        Prediction("e1", ("alpha", "beta", "gamma"), ""),
        Prediction("e2", ("ant", "zebra"), ""),
    ]
    reversed_preds = [
        Prediction("e1", ("gamma", "beta", "alpha"), ""),
        Prediction("e2", ("zebra", "ant"), ""),
    ]
    assert adherence_phi(ordered, reorder).phi == 100.0
    assert adherence_phi(reversed_preds, reorder).phi == 0.0
    hand = adherence_phi([Prediction("e", ("b", "a", "c"), "")], reorder)
    assert hand.phi == 50.0
    mixed = [
        Prediction("e1", ("mid", "apex", "zoo"), ""),
        Prediction("e2", ("kite", "arc", "moth", "bee"), ""),
    ]
    forward = adherence_phi(mixed, reorder).phi
    backward = adherence_phi(mixed, reorder_reverse).phi
    assert forward + backward == pytest.approx(100.0)
    ok(4, "phi is 100/0 at the bounds, 50.0 on the hand case, and reverses to complement")


def test_criterion_05_set_construction_by_condition():
    start = time.perf_counter()
    dataset, table, model = build_knowledge_rig(n_known=20, n_half=20, n_unknown=20)
    assert len(dataset) >= 60
    profiles = profile_dataset(dataset, table, model)
    scores = {p.example_id: p.f1_em for p in profiles}
    unknown = build_sets(profiles, "unknown", n_sets=4, set_size=5, seed=0)
    for s in unknown.sets:
        assert float(np.mean([scores[m] for m in s.member_ids])) == 0.0
    known = build_sets(profiles, "known", n_sets=4, set_size=5, seed=0)
    assert not known.fallback_used
    for s in known.sets:
        assert float(np.mean([scores[m] for m in s.member_ids])) == 1.0
    halfknown = build_sets(profiles, "halfknown", n_sets=4, set_size=5, seed=0)
    for s in halfknown.sets:
        mean = float(np.mean([scores[m] for m in s.member_ids]))
        assert 0.4 <= mean <= 0.6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(5, f"unknown/known/halfknown sets score 0.0 / 1.0 / in-band ({elapsed:.2f}s)")


APPENDIX_SHOTS = [
    (
        "Who is the chairman of the federal reserve?",
        ["Alan Greenspan", "Ben Bernanke", "Janet Yellen"],
    ),
    (
        "Who is the president of south africa now?",
        ["Thabo Mvuyelwa Mbeki", "Kgalema Petrus Motlanthe", "JZ"],
    ),
    (
        "Who is the present chairperson of national human rights commission in india?",
        ["Justice K. G. Balakrishnan", "H. L. Dattu", "Cyriac Joseph"],
    ),
    (
        "Who appoints the chairman of the finance commission?",
        ["the President", "Pranab Mukherjee", "Ram Nath Kovind", "Pratibha Devisingh Patil"],
    ),
    (
        "Who is the chairman of national commission for woman of india?",
        ["Lalitha Kumaramangalam", "Mamta Sharma", "Girija Vyas"],
    ),
]

APPENDIX_QUERY = "Who is the current chairman of african union commission?"

APPENDIX_PROMPT = (
    "Question: Who is the chairman of the federal reserve?\n"
    "Answers: Alan Greenspan | Ben Bernanke | Janet Yellen\n"
    "\n"
    "Question: Who is the president of south africa now?\n"
    "Answers: Thabo Mvuyelwa Mbeki | Kgalema Petrus Motlanthe | JZ\n"
    "\n"
    "Question: Who is the present chairperson of national human rights commission in india?\n"
    "Answers: Justice K. G. Balakrishnan | H. L. Dattu | Cyriac Joseph\n"
    "\n"
    "Question: Who appoints the chairman of the finance commission?\n"
    "Answers: the President | Pranab Mukherjee | Ram Nath Kovind | Pratibha Devisingh Patil\n"
    "\n"
    "Question: Who is the chairman of national commission for woman of india?\n"
    "Answers: Lalitha Kumaramangalam | Mamta Sharma | Girija Vyas\n"
    "\n"
    "Question: Who is the current chairman of african union commission?\n"
    "Answers:"
)

APPENDIX_OUTPUT = "Jean Ping | Nkosazana Dlamini-Zuma | Moussa Faki Mahamat\n"


def test_criterion_06_prompt_bit_exactness():
    rendered = render_prompt(APPENDIX_SHOTS, APPENDIX_QUERY)
    assert rendered == APPENDIX_PROMPT
    parsed = parse_answers(APPENDIX_OUTPUT)
    assert parsed == ["Jean Ping", "Nkosazana Dlamini-Zuma", "Moussa Faki Mahamat"]
    ok(6, "five-shot prompt renders byte-for-byte and the output parses to 3 answers")


def test_criterion_07_retrieval_oracle():
    from iclforge.core import EmbeddingTable

    rng = np.random.default_rng(707)
    for trial in range(12):
        pool_size = int(rng.integers(10, 51))
        vectors = {"query": rng.normal(size=5).tolist()}
        for i in range(pool_size):
            vectors[f"p{i:02d}"] = rng.normal(size=5).tolist()
        table = EmbeddingTable.from_vectors(vectors)
        ids = [i for i in sorted(vectors) if i != "query"]
        pool = Pool.of([Example(id=i, question=f"q {i}", answers=("a",)) for i in ids], table)
        query = Example(id="query", question="q", answers=("a",))
        for k in range(1, 11):
            got = retrieve(query, pool, RetrievalConfig("similar", k=k))
            expected = oracle_top_k("query", ids, vectors, k)
            assert {e.id for e in got} == set(expected), (trial, k)
        diverse = retrieve(query, pool, RetrievalConfig("diverse", k=1, seed=trial))
        similar = retrieve(query, pool, RetrievalConfig("similar", k=1))
        assert [e.id for e in diverse] == [e.id for e in similar]
    ok(7, "similar top-k equals brute force on pools up to 50 and diverse k=1 equals similar")


def test_criterion_08_end_to_end_determinism(fixtures_dir, tmp_path):
    start = time.perf_counter()

    def run(out, jobs):
        argv = [
            "eval",
            "--train", str(fixtures_dir / "toy_train.jsonl"),
            "--eval", str(fixtures_dir / "toy_eval.jsonl"),
            "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
            "--backend", f"mock:{fixtures_dir / 'mock_toy.json'}",
            "--out", str(out),
            "--strategy", "greedy",
            "--jobs", str(jobs),
            "--seed", "0",
        ]
        assert cli_dispatch(argv) == 0
        return (
            (out / RECORDS_FILE).read_bytes(),
            (out / SUMMARY_FILE).read_bytes(),
        )

    serial_1 = run(tmp_path / "serial-1", 1)
    serial_2 = run(tmp_path / "serial-2", 1)
    parallel = run(tmp_path / "parallel", 4)
    assert serial_1 == serial_2 == parallel
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    ok(8, f"toy eval is byte-identical across runs and job counts ({elapsed:.2f}s)")


def test_criterion_09_bootstrap_sanity():
    scores = [0.25, 0.5, 0.75, 0.1, 0.9, 0.3]
    assert paired_bootstrap(scores, scores, resamples=2000, seed=1) == 1.0
    better = [s + 0.05 for s in scores]
    assert paired_bootstrap(better, scores, resamples=2000, seed=1) == 0.0
    rng = np.random.default_rng(9)
    a = rng.random(40).tolist()
    b = rng.random(40).tolist()
    assert paired_bootstrap(a, b, resamples=2000, seed=5) == paired_bootstrap(
        a, b, resamples=2000, seed=5
    )
    ok(9, "bootstrap p is 1.0 on self, 0.0 under strict dominance, and seed-stable")


def test_criterion_10_adherence_and_answer_count_pipeline(tmp_path):
    copycat = build_copycat_rig(tmp_path / "copycat")
    config = RunConfig(
        train_path=copycat["train"],
        eval_path=copycat["eval"],
        embeddings_path=copycat["embeddings"],
        backend=f"mock:{copycat['mock']}",
        out_dir=str(tmp_path / "copycat-out"),
        ordering="alphabet",
        k=1,
        seed=0,
    )
    report = run_eval(config)
    assert report.aggregates["phi_alphabet"] == 100.0

    listcont = build_listcont_rig(tmp_path / "listcont", seed=0)
    strategies = (
        "random",
        "alphabet",
        "greedy",
        "perplexity",
        "reverse_perplexity",
        "reverse_greedy",
    )
    answer_counts = {}
    for strategy in strategies:
        run_config = RunConfig(
            train_path=listcont["train"],
            eval_path=listcont["eval"],
            embeddings_path=listcont["embeddings"],
            backend=f"mock:{listcont['mock']}",
            out_dir=str(tmp_path / f"listcont-{strategy}"),
            ordering=strategy,
            k=1,
            seed=0,
            compute_adherence=False,
        )
        answer_counts[strategy] = run_eval(run_config).aggregates["answer_count"]
    deltas = {s: answer_counts[s] - answer_counts["random"] for s in strategies}
    ranked = sorted(deltas, key=deltas.__getitem__, reverse=True)
    assert ranked[0] == "alphabet"
    values = [deltas[s] for s in ranked]
    assert all(a > b for a, b in zip(values, values[1:])), deltas
    ok(
        10,
        "copy-order mock gives phi(alphabet)=100 via the harness and alphabet "
        "has the strictly largest answer-count delta",
    )
