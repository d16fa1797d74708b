from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iclforge.errors import DataError
from iclforge.prompting import parse_answers, render_prompt

clean_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" '-"),
    min_size=1,
    max_size=25,
).filter(lambda s: s.strip() == s and s.strip() and " | " not in s)


def test_single_shot_layout():
    shots = [("Who is the chairman?", ["Alan Greenspan", "Ben Bernanke"])]
    rendered = render_prompt(shots, "Who is next?")
    assert rendered == (
        "Question: Who is the chairman?\n"
        "Answers: Alan Greenspan | Ben Bernanke\n"
        "\n"
        "Question: Who is next?\n"
        "Answers:"
    )


def test_zero_shot():
    assert render_prompt([], "Q") == "Question: Q\nAnswers:"


def test_single_answer_shot_has_no_delimiter():
    rendered = render_prompt([("q", ["only"])], "Q")
    shot_line = rendered.splitlines()[1]
    assert shot_line == "Answers: only"
    assert " | " not in shot_line


def test_empty_answer_rejected():
    with pytest.raises(DataError, match="empty answer"):
        render_prompt([("q", ["ok", "  "])], "Q")


def test_empty_shot_answer_list_rejected():
    with pytest.raises(DataError, match="no answers"):
        render_prompt([("q", [])], "Q")


def test_parse_answers_order_preserved():
    parsed = parse_answers("Jean Ping | Nkosazana Dlamini-Zuma | Moussa Faki Mahamat\n")
    assert parsed == ["Jean Ping", "Nkosazana Dlamini-Zuma", "Moussa Faki Mahamat"]


def test_parse_answers_empty_line():
    assert parse_answers("\n") == []
    assert parse_answers("") == []


def test_parse_answers_drops_empty_pieces_and_cuts_at_newline():
    assert parse_answers("a |  | b\nQuestion: next") == ["a", "b"]


def test_parse_answers_keeps_duplicates():
    assert parse_answers("x | x | y") == ["x", "x", "y"]


@given(st.lists(clean_text, min_size=1, max_size=6), clean_text)
def test_answers_line_round_trip(answers, question):
    rendered = render_prompt([(question, answers)], "query")
    answers_line = rendered.splitlines()[1]
    assert answers_line.startswith("Answers: ")
    assert parse_answers(answers_line[len("Answers: "):]) == answers


@given(
    st.lists(st.tuples(clean_text, st.lists(clean_text, min_size=1, max_size=4)), max_size=5),
    clean_text,
)
def test_blank_line_count_matches_shots(shots, query):
    rendered = render_prompt(shots, query)
    assert rendered.count("\n\n") == len(shots)
