"""iclforge: knowledge-aware in-context example construction and evaluation
for multi-answer question answering.
"""

__version__ = "0.1.0"

from .core import (  # noqa: E402
    Dataset,
    EmbeddingTable,
    Example,
    Prediction,
    load_dataset,
    load_embeddings,
    normalize_answer,
    save_dataset,
    save_embeddings,
)
from .lm import CachedModel, LanguageModel, MockModel, MockRule, RemoteModel, TokenScores, make_backend
from .metrics import (
    AdherenceResult,
    SetScores,
    adherence_phi,
    not_in_prompt_scores,
    paired_bootstrap,
    set_scores,
    token_f1,
)
from .ordering import answer_perplexity, strategy_permutation
from .profiling import (
    ExampleSet,
    KnowledgeProfile,
    build_sets,
    median_similarity_filter,
    profile_dataset,
    profile_example,
)
from .prompting import parse_answers, render_prompt
from .retrieval import Pool, RetrievalConfig, kmeans, retrieve, similarity
from .harness import EvalReport, RunConfig, compare_runs, load_report, run_eval

__all__ = [
    "__version__",
    "AdherenceResult",
    "CachedModel",
    "Dataset",
    "EmbeddingTable",
    "EvalReport",
    "Example",
    "ExampleSet",
    "KnowledgeProfile",
    "LanguageModel",
    "MockModel",
    "MockRule",
    "Pool",
    "Prediction",
    "RemoteModel",
    "RetrievalConfig",
    "RunConfig",
    "SetScores",
    "TokenScores",
    "adherence_phi",
    "answer_perplexity",
    "build_sets",
    "compare_runs",
    "kmeans",
    "load_dataset",
    "load_embeddings",
    "load_report",
    "make_backend",
    "median_similarity_filter",
    "normalize_answer",
    "not_in_prompt_scores",
    "paired_bootstrap",
    "parse_answers",
    "profile_dataset",
    "profile_example",
    "render_prompt",
    "retrieve",
    "run_eval",
    "save_dataset",
    "save_embeddings",
    "set_scores",
    "similarity",
    "strategy_permutation",
    "token_f1",
]
