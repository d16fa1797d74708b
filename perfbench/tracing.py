"""Spans around iclforge's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function in every ``iclforge``
module that binds it (``harness`` imports ``retrieve`` by name, for example)
and the three backend methods of ``MockModel``, ``RemoteModel`` and
``CachedModel`` with wrappers; ``uninstall()`` puts the originals back. A span
holds its name, start, end, parent span and an optional note; spans stay in a
list until the benchmark derives its per-layer metrics from them. Functions
called a million times per pass (``retrieval.similarity``) and functions
whose cost is all in their children (``ordering.answer_perplexity``) get a
counter keyed by the enclosing span's name instead of a span.

The span stack is shared by every thread, so traced passes run with
``jobs=1``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

SPANNED = (
    ("core", "load_dataset"),
    ("core", "load_embeddings"),
    ("lm", "make_backend"),
    ("retrieval", "retrieve"),
    ("retrieval", "kmeans"),
    ("ordering", "strategy_permutation"),
    ("prompting", "render_prompt"),
    ("prompting", "parse_answers"),
    ("metrics", "set_scores"),
    ("metrics", "adherence_phi"),
    ("metrics", "paired_bootstrap"),
    ("profiling", "profile_dataset"),
    ("profiling", "profile_example"),
    ("profiling", "build_sets"),
    ("profiling", "median_similarity_filter"),
    ("profiling", "save_profiles"),
    ("harness", "run_eval"),
    ("harness", "adherence_for_records"),
    ("harness", "compare_runs"),
    ("harness", "load_report"),
)
COUNTED = (("retrieval", "similarity"), ("ordering", "answer_perplexity"))
BACKEND_OPS = (
    ("score_continuation", "score"),
    ("next_token_distribution", "next_token"),
    ("generate", "generate"),
)
# span-name prefix per backend class; the compute backends share "lm."
BACKEND_CLASSES = (("MockModel", "lm"), ("RemoteModel", "lm"), ("CachedModel", "lm.cache"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    tag: str = ""
    note: object = None


def _generate_note(args, kwargs, result):
    max_tokens = kwargs["max_tokens"] if "max_tokens" in kwargs else args[3]
    tokens = len(result.split())
    return (tokens, tokens >= max_tokens)


def _kmeans_note(args, kwargs, result):
    vectors, k = args[0], args[1]
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    return (hashlib.sha256(vectors.tobytes()).hexdigest(), k, seed)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    def _span(self, name: str, fn, note=None, tag: str = ""):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, tag)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        parent_name = self._parent_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, parent_name())] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "iclforge" or mod_name.startswith("iclforge."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, new)

    def install(self) -> None:
        import iclforge

        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"iclforge.{mod_name}"], fn_name)
            note = _kmeans_note if fn_name == "kmeans" else None
            self._replace_everywhere(original, self._span(f"{mod_name}.{fn_name}", original, note))
        for mod_name, fn_name in COUNTED:
            original = getattr(sys.modules[f"iclforge.{mod_name}"], fn_name)
            self._replace_everywhere(original, self._counter(f"{mod_name}.{fn_name}", original))
        for cls_name, prefix in BACKEND_CLASSES:
            cls = getattr(iclforge.lm, cls_name)
            for method, op in BACKEND_OPS:
                original = vars(cls)[method]
                note = _generate_note if op == "generate" else None
                tag = "remote" if cls_name == "RemoteModel" else ""
                self._replace(cls, method, self._span(f"{prefix}.{op}", original, note, tag))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.end - span.start
        return out
