"""Prompt rendering and answer-list parsing.

The rendered format is a contract: shots are rendered as
``Question: {q}\\nAnswers: {a1} | {a2}\\n\\n`` and the final query line ends
at the bare ``Answers:`` so the model supplies the leading space.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataError

ANSWER_DELIMITER = " | "

Shot = tuple[str, Sequence[str]]


def render_prompt(shots: Sequence[Shot], query: str) -> str:
    """Render in-context shots followed by the query block, byte-exact."""
    parts: list[str] = []
    for question, answers in shots:
        if not answers:
            raise DataError(f"shot {question!r} has no answers")
        for answer in answers:
            if not answer.strip():
                raise DataError(f"shot {question!r} has an empty answer")
        parts.append(
            f"Question: {question}\nAnswers: {ANSWER_DELIMITER.join(answers)}\n\n"
        )
    parts.append(f"Question: {query}\nAnswers:")
    return "".join(parts)


def parse_answers(generated: str) -> list[str]:
    """Split a generation into its answer list.

    Only text before the first newline counts; pieces are split on the exact
    ``" | "`` delimiter, trimmed, and empty pieces dropped. Duplicates and
    order are preserved.
    """
    head = generated.split("\n", 1)[0]
    return [piece.strip() for piece in head.split(ANSWER_DELIMITER) if piece.strip()]
