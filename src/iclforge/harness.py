"""Run drivers and their manifests: evaluation (retrieval, ordering, prompting,
generation, metrics, report persistence), knowledge profiling and set building.

A report directory holds three artifacts: ``records.jsonl`` (one record per
evaluation example, flushed incrementally in dataset order so interrupted runs
can resume), ``summary.tsv`` (aggregate metrics, full-precision), and
``manifest.json`` (the only state file: config snapshot and resume key, input
file hashes, fingerprint, seed, timestamps; written when a run starts and
rewritten with its counters when it ends).
Records and summary are byte-identical across reruns and across job counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .core import (
    Dataset,
    EmbeddingTable,
    Example,
    Prediction,
    Fields,
    SPLITS,
    atomic_write_text,
    decode_json,
    encode_json,
    load_dataset,
    load_embeddings,
    normalize_answer,
    read_json_object,
    read_jsonl,
    read_text,
)
from .errors import DataError, NoComparablePairs, TooManyAnswers, UsageError
from .lm import LanguageModel, make_backend
from .metrics import (
    AdherenceResult,
    adherence_phi,
    not_in_prompt_scores,
    paired_bootstrap,
    set_exact_match,
    set_scores,
    strategy_ranks,
)
from .ordering import MODEL_STRATEGIES, reorderable, shot_order, strategy_permutation
from .ordering import STRATEGIES as ORDERING_STRATEGIES
from .profiling import (
    KnowledgeProfile,
    SetBuildResult,
    build_sets,
    load_profiles,
    median_similarity_filter,
    profile_dataset,
    save_sets,
)
from .prompting import render_prompt
from .retrieval import STRATEGIES as RETRIEVAL_STRATEGIES
from .retrieval import Pool, RetrievalConfig, retrieve

log = logging.getLogger(__name__)

RECORDS_FILE = "records.jsonl"
SUMMARY_FILE = "summary.tsv"
MANIFEST_FILE = "manifest.json"
PROFILES_FILE = "profiles.jsonl"
SETS_FILE = "sets.jsonl"

GENERATION_STOP = "\n"
SIGNIFICANCE_LEVEL = 0.05

SCORE_KEYS = ("em", "p_em", "r_em", "f1_em", "p_f1", "r_f1", "f1_f1", "answer_count")
RECORD_SCORE_KEYS = SCORE_KEYS + ("not_in_prompt_p", "not_in_prompt_r")

# a RunConfig field's annotation -> (description, check of its value)
_CONFIG_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "int": ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "tuple[str, ...] | None": (
        "a list of strings or null",
        lambda v: v is None
        or isinstance(v, (list, tuple)) and all(isinstance(i, str) for i in v),
    ),
}


@dataclass
class RunConfig:
    train_path: str
    eval_path: str
    embeddings_path: str
    backend: str
    out_dir: str
    retrieval_strategy: str = "similar"
    k: int = 5
    ordering: str = "random"
    fixed_set_ids: tuple[str, ...] | None = None
    seed: int = 0
    cache_dir: str | None = None
    max_tokens: int = 256
    jobs: int = 1
    eval_split: str = "dev"
    ordering_prefix_k: int = 5
    compute_adherence: bool = True

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            what, check = _CONFIG_KINDS[f.type]
            value = getattr(self, f.name)
            if not check(value):
                raise UsageError(f"{f.name} must be {what}, got {value!r}")
        if self.fixed_set_ids is not None:
            self.fixed_set_ids = tuple(self.fixed_set_ids)
        if self.ordering not in ORDERING_STRATEGIES:
            raise UsageError(f"unknown ordering strategy {self.ordering!r}")
        if self.retrieval_strategy not in RETRIEVAL_STRATEGIES:
            raise UsageError(f"unknown retrieval strategy {self.retrieval_strategy!r}")
        if self.eval_split not in SPLITS:
            raise UsageError(f"unknown eval split {self.eval_split!r}; expected one of {SPLITS}")
        ids = self.fixed_set_ids
        if ids is not None and not ids:
            raise UsageError("fixed example set is empty")
        if ids is not None and len(set(ids)) < len(ids):
            raise UsageError(f"fixed example set repeats an id: {list(ids)!r}")
        if self.k < 1 or self.max_tokens < 1 or self.jobs < 1:
            raise UsageError("k, max_tokens, and jobs must be positive")
        if self.ordering_prefix_k < 0:
            raise UsageError(
                f"ordering_prefix_k must be at least 0, got {self.ordering_prefix_k}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # JSON writes fixed_set_ids as a list

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ExampleRecord:
    example_id: str
    prompt_sha256: str
    shot_ids: tuple[str, ...]
    answers: tuple[str, ...]
    raw_text: str
    scores: dict

    def to_json(self, path: Path, line: int) -> str:
        """The record as line `line` of the records file `path`."""
        record = {
            "id": self.example_id,
            "prompt_sha256": self.prompt_sha256,
            "shot_ids": list(self.shot_ids),
            "answers": list(self.answers),
            "raw_text": self.raw_text,
            "scores": self.scores,
        }
        return encode_json(record, path, line, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_fields(cls, record: Fields) -> "ExampleRecord":
        scores = record.get("scores", dict)
        for key in RECORD_SCORE_KEYS:
            scores.get(key, float, None if key.startswith("not_in_prompt") else ...)
        return cls(
            example_id=record.get("id", str),
            prompt_sha256=record.get("prompt_sha256", str),
            shot_ids=tuple(record.get("shot_ids", list, of=str)),
            answers=tuple(record.get("answers", list, of=str)),
            raw_text=record.get("raw_text", str),
            scores=scores.data,
        )


@dataclass
class EvalReport:
    records: list[ExampleRecord]
    aggregates: dict[str, float]
    manifest: dict = field(default_factory=dict)


def _prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _parse_records(path: Path, data: bytes | None = None) -> list[ExampleRecord]:
    """The records of a records file; an example id on two lines is a DataError."""
    records = []
    first_line: dict[str, int] = {}
    for fields in read_jsonl(path, "records", data=data):
        record = ExampleRecord.from_fields(fields)
        line = first_line.setdefault(record.example_id, fields.line)
        if line != fields.line:
            raise fields.fail(f"example id {record.example_id!r} repeats line {line}")
        records.append(record)
    return records


def _resume_records(path: Path) -> list[ExampleRecord]:
    """Records of an interrupted run, with a torn last line cut off the file.

    The last line is torn when it lacks its newline or does not parse; the
    file is truncated after the last whole record so appending continues
    there. Any other bad line, or a repeated example id, raises DataError.
    """
    data = path.read_bytes()
    whole = data[: data.rfind(b"\n") + 1]
    last = whole.rfind(b"\n", 0, -1) + 1
    try:
        # torn only if it fails on its own: a whole record repeating an earlier
        # id is kept here and refused by the parse below
        _parse_records(path, whole[last:])
    except DataError:
        whole = whole[:last]
    records = _parse_records(path, whole)
    if len(whole) < len(data):
        log.warning("dropping a torn last line of %s", path)
        with path.open("r+b") as fh:
            fh.truncate(len(whole))
    return records


def _input_sha256(**paths: str) -> dict[str, str]:
    """Hex SHA-256 digest of each named input file."""
    digests = {}
    for name, path in paths.items():
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            # fixed-size chunks keep memory flat whatever the file size
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        digests[name] = digest.hexdigest()
    return digests


def _backend_counts(model: LanguageModel) -> dict[str, int | None]:
    """The backend's cache and generation-cap counters; None where it keeps none."""
    return {
        "cache_hits": getattr(model, "hits", None),
        "cache_misses": getattr(model, "misses", None),
        "generation_cap_hits": getattr(model, "generation_cap_hits", None),
    }


def _config_hash(config: RunConfig, input_sha256: dict[str, str], fingerprint: str) -> str:
    """Resume key: the config, the input file contents and the backend fingerprint."""
    # jobs and cache_dir do not affect results, so a run resumes across them
    snapshot = {k: v for k, v in config.to_dict().items() if k not in ("jobs", "cache_dir")}
    snapshot["input_sha256"] = input_sha256
    snapshot["model_fingerprint"] = fingerprint
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _make_out_dir(out_dir: str | Path) -> Path:
    """`out_dir`, made with its parents; a path that cannot be made a
    directory, such as an existing file, is a UsageError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out_dir}: {exc.strerror or exc}") from exc
    return out_dir


def _write_manifest(out_dir: Path, command: str, payload: dict) -> dict:
    """Replace `out_dir`'s manifest with `payload`, stamped; return what was written."""
    manifest = {
        "tool_version": __version__,
        "command": command,
        "written_at": datetime.now(timezone.utc).isoformat(),
        **payload,
    }
    path = out_dir / MANIFEST_FILE
    atomic_write_text(path, encode_json(manifest, path, indent=2, sort_keys=True))
    return manifest


class _PromptPlanner:
    """The run's prompt planner: shots, shot answer orders and rendered prompts.

    `shots` retrieves a query's shots from the run's one pool, which leaves the
    query out when it holds it and clusters itself once. `order` orders each
    shot not ordered yet through `ordering.shot_order`, once, with the `map`
    it is given; `run_eval` orders every shot of a run before it generates, so
    ``jobs`` never changes the backend calls made and generation only reads
    `orders`. `render` renders a prompt from ordered shots, and `prompt`
    renders a record's prompt again from its shot ids. The pool's embedding
    rows are looked up once, when the planner is built.
    """

    def __init__(
        self,
        config: RunConfig,
        train: Dataset,
        eval_ds: Dataset,
        table: EmbeddingTable,
        model: LanguageModel,
    ) -> None:
        self.config = config
        self.train = train
        self.eval_ds = eval_ds
        self.model = model
        self.pool = Pool.shots(train, table)
        self.shot_duty_excluded = len(train) - len(self.pool)
        if not self.pool:
            raise DataError("no shot-safe training examples")
        self.fixed_shots: list[Example] | None = None
        if config.fixed_set_ids is not None:
            self.fixed_shots = [train.by_id(i) for i in config.fixed_set_ids]
            for shot in self.fixed_shots:
                if not shot.prompt_safe:
                    raise DataError(f"fixed-set member {shot.id!r} is not shot-safe")
        self.retrieval = RetrievalConfig(
            strategy=config.retrieval_strategy, k=config.k, seed=config.seed
        )
        self.orders: dict[str, tuple[str, ...]] = {}

    def shots(self, example: Example) -> Sequence[Example]:
        """The shots of `example`'s prompt: the fixed set, else retrieved ones."""
        if self.fixed_shots is not None:
            return self.fixed_shots
        return retrieve(example, self.pool, self.retrieval)

    def order(self, shots: Iterable[Example], map_: Callable = map) -> None:
        """Order each of `shots` not ordered yet, once, through `map_`."""
        todo = list({s.id: s for s in shots if s.id not in self.orders}.values())
        self.orders.update(zip([s.id for s in todo], map_(self._shot_order, todo)))

    def _shot_order(self, shot: Example) -> tuple[str, ...]:
        c = self.config
        return shot_order(c.ordering, shot, self.pool, self.model, c.ordering_prefix_k, c.seed)

    def render(self, shots: Sequence[Example], query: Example) -> str:
        """The prompt for `query` after `shots`, each in its planned order."""
        return render_prompt([(s.question, self.orders[s.id]) for s in shots], query.question)

    def prompt(self, record: ExampleRecord) -> str:
        """The prompt `record` was generated from, rendered from its shot ids.

        A prompt whose hash is not the record's stored one is a DataError.
        """
        shots = [self.train.by_id(i) for i in record.shot_ids]
        self.order(shots)
        prompt = self.render(shots, self.eval_ds.by_id(record.example_id))
        if _prompt_hash(prompt) != record.prompt_sha256:
            raise DataError(
                f"re-rendered prompt for {record.example_id!r} does not match the "
                "stored prompt hash; inputs changed since the run"
            )
        return prompt


def _load_run(config: RunConfig) -> tuple[Dataset, _PromptPlanner]:
    """The eval split and the prompt planner over the run's inputs."""
    train = load_dataset(config.train_path, split="train")
    eval_ds = load_dataset(config.eval_path, split=config.eval_split)
    table = load_embeddings(config.embeddings_path, train)
    table.require(eval_ds.ids())
    model = make_backend(config.backend, config.cache_dir)
    return eval_ds, _PromptPlanner(config, train, eval_ds, table, model)


def _score_example(
    example: Example,
    prediction: Prediction,
    prompt_answer_pool: set[str],
) -> dict:
    exact = set_scores(prediction.answers, example.answers, matcher="exact")
    token = set_scores(prediction.answers, example.answers, matcher="token_f1")
    scores = {
        "em": float(set_exact_match(prediction.answers, example.answers)),
        "p_em": exact.precision,
        "r_em": exact.recall,
        "f1_em": exact.f1,
        "p_f1": token.precision,
        "r_f1": token.recall,
        "f1_f1": token.f1,
        "answer_count": float(len(prediction.answers)),
    }
    nip = not_in_prompt_scores(prediction, example.answers, prompt_answer_pool)
    scores["not_in_prompt_p"] = None if nip is None else nip.precision
    scores["not_in_prompt_r"] = None if nip is None else nip.recall
    return scores


def run_eval(config: RunConfig) -> EvalReport:
    """Evaluate the configured strategy over the eval split and persist a report."""
    started = datetime.now(timezone.utc).isoformat()
    out_dir = _make_out_dir(config.out_dir)
    eval_ds, planner = _load_run(config)
    model = planner.model
    records_path = out_dir / RECORDS_FILE

    input_sha256 = _input_sha256(
        train=config.train_path, eval=config.eval_path, embeddings=config.embeddings_path
    )
    cfg_hash = _config_hash(config, input_sha256, model.fingerprint)
    try:
        prior = read_json_object(out_dir / MANIFEST_FILE, "manifest").data
    except DataError:
        prior = {}  # a missing or unreadable manifest means no resume
    resumed: dict[str, ExampleRecord] = {}
    if records_path.exists() and prior.get("config_hash") == cfg_hash:
        for record in _resume_records(records_path):
            resumed[record.example_id] = record
        log.info("resuming run with %d completed examples", len(resumed))
    if not resumed:
        # a fresh run must not leave an older run's summary beside its records
        (out_dir / SUMMARY_FILE).unlink(missing_ok=True)
    manifest = {
        "config": config.to_dict(),
        "config_hash": cfg_hash,
        "input_sha256": input_sha256,
        "model_fingerprint": model.fingerprint,
        "seed": config.seed,
        "started_at": started,
    }

    def evaluate(example: Example, shots: Sequence[Example]) -> ExampleRecord:
        prompt = planner.render(shots, example)
        raw = model.generate(prompt, stop=[GENERATION_STOP], max_tokens=config.max_tokens)
        prediction = Prediction.from_generation(example.id, raw)
        prompt_answer_pool = {normalize_answer(a) for s in shots for a in s.answers}
        scores = _score_example(example, prediction, prompt_answer_pool)
        return ExampleRecord(
            example_id=example.id,
            prompt_sha256=_prompt_hash(prompt),
            shot_ids=tuple(s.id for s in shots),
            answers=prediction.answers,
            raw_text=raw,
            scores=scores,
        )

    todo = [ex for ex in eval_ds if ex.id not in resumed]
    records: list[ExampleRecord] = [resumed[ex.id] for ex in eval_ds if ex.id in resumed]
    mode = "a" if resumed else "w"
    # the executor starts a thread only when given work, so one job starts none
    with (
        records_path.open(mode, encoding="utf-8") as fh,
        ThreadPoolExecutor(max_workers=config.jobs) as executor,
    ):
        # map yields in submission order, so the on-disk prefix stays sorted, and
        # a failure cancels the work still queued
        map_ = executor.map if config.jobs > 1 else map
        todo_shots = [planner.shots(ex) for ex in todo]
        kept_shots = [planner.train.by_id(i) for r in records for i in r.shot_ids]
        planner.order(itertools.chain(kept_shots, *todo_shots), map_)
        for record in records:
            planner.prompt(record)  # a resumed record must still match its inputs
        # written once the records file holds only this run's records
        _write_manifest(out_dir, "eval", manifest)
        for record in map_(evaluate, todo, todo_shots):
            records.append(record)
            fh.write(record.to_json(records_path, len(records)) + "\n")
            fh.flush()

    aggregates = compute_aggregates(records)
    adherence_skipped = 0
    if config.compute_adherence and config.ordering != "random":
        try:
            result = adherence_for_records(
                records, config.ordering, model, config.seed, planner.prompt
            )
            aggregates[f"phi_{config.ordering}"] = result.phi
        except NoComparablePairs as exc:
            log.warning("adherence not computed: %s", exc)
            adherence_skipped = len(records)

    summary = render_summary(aggregates)
    atomic_write_text(out_dir / SUMMARY_FILE, summary)

    manifest["counts"] = {
        "examples": len(records),
        "resumed": len(resumed),
        "shot_duty_excluded": planner.shot_duty_excluded,
        "reorder_skipped": sum(
            not reorderable(planner.train.by_id(i).answers) for i in planner.orders
        ),
        "not_in_prompt_skipped": sum(r.scores.get("not_in_prompt_p") is None for r in records),
        "adherence_skipped": adherence_skipped,
        **_backend_counts(model),
    }
    manifest = _write_manifest(out_dir, "eval", manifest)
    return EvalReport(records=records, aggregates=aggregates, manifest=manifest)


def run_profile(
    train_path: str,
    embeddings_path: str,
    backend: str,
    k: int,
    out_dir: str | Path,
    cache_dir: str | None = None,
) -> list[KnowledgeProfile]:
    """Profile every shot-safe training example into `out_dir`'s profile store."""
    out_dir = _make_out_dir(out_dir)
    train = load_dataset(train_path, split="train")
    table = load_embeddings(embeddings_path, train)
    model = make_backend(backend, cache_dir)
    profiles = profile_dataset(train, table, model, k=k, store_path=out_dir / PROFILES_FILE)
    _write_manifest(
        out_dir,
        "profile",
        {
            "model_fingerprint": model.fingerprint,
            "k": k,
            "input_sha256": _input_sha256(train=train_path, embeddings=embeddings_path),
            "counts": {"profiled": len(profiles), **_backend_counts(model)},
        },
    )
    return profiles


def run_build_sets(
    profiles_path: str,
    condition: str,
    n_sets: int,
    set_size: int,
    median_n: int | None,
    halfknown_band: tuple[float, float],
    seed: int,
    out_dir: str | Path,
) -> SetBuildResult:
    """Sample `condition` sets from one model's profile store into `out_dir`'s set file.

    Known and unknown mean something only for one model, so a store that
    holds profiles of more than one model is a DataError.
    """
    profiles = load_profiles(profiles_path)
    fingerprints = list(dict.fromkeys(p.model_fingerprint for p in profiles))
    if len(fingerprints) > 1:
        raise DataError(
            f"{profiles_path}: profiles of more than one model "
            f"({fingerprints[0]!r}, {fingerprints[1]!r}); build sets from one model's store"
        )
    if median_n is not None:
        keep = set(median_similarity_filter(profiles, median_n))
        profiles = [p for p in profiles if p.example_id in keep]
    result = build_sets(profiles, condition, n_sets, set_size, seed, halfknown_band)
    out_dir = _make_out_dir(out_dir)
    save_sets(result.sets, out_dir / SETS_FILE)
    _write_manifest(
        out_dir,
        "build-sets",
        {
            "condition": condition,
            "seed": seed,
            "input_sha256": _input_sha256(profiles=profiles_path),
            # build_sets refuses an empty store, so it held one model
            "model_fingerprint": fingerprints[0],
            "counts": {
                "eligible": result.eligible_count,
                "sets": len(result.sets),
                "set_size": set_size,
            },
            "fallback_used": result.fallback_used,
            "fallback_threshold": result.fallback_threshold,
        },
    )
    return result


def adherence_for_records(
    records: Sequence[ExampleRecord],
    strategy: str,
    model: LanguageModel | None,
    seed: int,
    prompt: Callable[[ExampleRecord], str] | None,
) -> AdherenceResult:
    """Adherence of each record's predicted answers to the given strategy.

    Model strategies score a record's answers after `prompt(record)`, the
    prompt it was generated from; it is asked for only then, once per record
    with answers. Predictions that cannot be reordered (20 or more answers)
    are skipped.
    """
    if strategy == "random":
        raise DataError("adherence against the random strategy is not defined")

    def reorderer(record: ExampleRecord):
        if not record.answers:
            return []
        try:
            permutation = strategy_permutation(
                strategy,
                record.answers,
                prefix=prompt(record) if strategy in MODEL_STRATEGIES else "",
                model=model,
                example_id=record.example_id,
                seed=seed,
            )
        except TooManyAnswers:
            return None
        return strategy_ranks(record.answers, permutation)

    return adherence_phi(records, reorderer)


def adherence_from_report(
    out_dir: str | Path,
    strategy: str,
    backend: str | None = None,
    cache_dir: str | None = None,
    fallback_cache_dir: str | None = None,
) -> AdherenceResult:
    """Compute adherence of a stored report's predictions to any strategy.

    Model strategies score each prediction after its prompt, so each record's
    prompt is rendered again from its stored shot ids, with the shot answer
    orders the manifest config plans over the input files, and no query
    retrieval; the stored prompt hashes guard against drift. The backend's
    cache is `cache_dir`, else the one the manifest config names, else
    `fallback_cache_dir`.
    """
    report = load_report(out_dir)
    if strategy not in MODEL_STRATEGIES:
        return adherence_for_records(report.records, strategy, None, 0, None)
    config_data = report.manifest.get("config")
    if config_data is None:
        raise DataError(f"report in {out_dir} has no manifest config to re-render prompts")
    try:
        config = RunConfig.from_dict(dict(config_data))
    except (TypeError, UsageError) as exc:  # TypeError: a required field is missing
        raise DataError(f"{Path(out_dir) / MANIFEST_FILE}: bad config: {exc}") from exc
    if backend is not None:
        config.backend = backend
    config.cache_dir = cache_dir or config.cache_dir or fallback_cache_dir
    _, planner = _load_run(config)
    return adherence_for_records(
        report.records, strategy, planner.model, config.seed, planner.prompt
    )


def compute_aggregates(records: Sequence[ExampleRecord]) -> dict[str, float]:
    """Mean of every per-example score over the records that carry it."""
    if not records:
        raise DataError("no records to aggregate")
    aggregates: dict[str, float] = {"n_examples": float(len(records))}
    for key in RECORD_SCORE_KEYS:
        values = [r.scores[key] for r in records if r.scores.get(key) is not None]
        if values:
            aggregates[key] = sum(values) / len(values)
    return aggregates


def render_summary(aggregates: dict[str, float]) -> str:
    lines = [f"{key}\t{aggregates[key]!r}" for key in sorted(aggregates)]
    return "\n".join(lines) + "\n"


def load_report(out_dir: str | Path) -> EvalReport:
    """Load a report directory, checking aggregates against the records."""
    out_dir = Path(out_dir)
    records_path = out_dir / RECORDS_FILE
    records = _parse_records(records_path)
    if not records:
        raise DataError(f"{records_path} holds no records")
    manifest = {}
    manifest_path = out_dir / MANIFEST_FILE
    if manifest_path.exists():
        fields = read_json_object(manifest_path, "manifest")
        fields.get("config", dict, None)  # adherence re-renders prompts from it
        manifest = fields.data
    summary_path = out_dir / SUMMARY_FILE
    aggregates = compute_aggregates(records)
    if summary_path.exists():
        # each value is a finite float, which repr() writes as a JSON number
        known = {"n_examples", *RECORD_SCORE_KEYS, *(f"phi_{s}" for s in ORDERING_STRATEGIES)}
        values, lines = {}, {}
        for number, line in enumerate(read_text(summary_path, "summary").split("\n"), 1):
            key, _, text = line.partition("\t")
            if not key.strip():
                continue
            where = f"{summary_path}: line {number}"
            if key in lines:
                raise DataError(f"{where}: key {key!r} repeats line {lines[key]}")
            if key not in known:
                raise DataError(f"{where}: unknown summary key {key!r}")
            lines[key] = number
            values[key] = decode_json(text, f"{summary_path}: {key}")
        summary = Fields(values, summary_path)
        stored = {key: summary.get(key, float) for key in summary.data}
        for key, value in aggregates.items():
            if stored.get(key) != value:  # written with repr, so equal bit for bit
                raise DataError(
                    f"summary value for {key!r} does not match the records "
                    f"({stored.get(key)} vs {value})"
                )
        aggregates = stored
    return EvalReport(records=records, aggregates=aggregates, manifest=manifest)


def compare_runs(
    report_a: EvalReport,
    report_b: EvalReport,
    resamples: int = 10_000,
    seed: int = 0,
) -> list[dict]:
    """Per-metric paired bootstrap of run a against run b (the baseline).

    All metrics share one set of resamples; each p-value equals its metric's alone.
    """
    ids_a = [r.example_id for r in report_a.records]
    ids_b = [r.example_id for r in report_b.records]
    if sorted(ids_a) != sorted(ids_b):
        raise DataError("runs cover different evaluation ids")
    by_id_b = {r.example_id: r for r in report_b.records}
    scores_a = [[r.scores[key] for r in report_a.records] for key in SCORE_KEYS]
    scores_b = [[by_id_b[i].scores[key] for i in ids_a] for key in SCORE_KEYS]
    p_values = paired_bootstrap(scores_a, scores_b, resamples=resamples, seed=seed)
    rows = []
    for key, a, b, p_value in zip(SCORE_KEYS, scores_a, scores_b, p_values):
        mean_a = sum(a) / len(a)
        mean_b = sum(b) / len(b)
        rows.append(
            {
                "metric": key,
                "mean_a": mean_a,
                "mean_b": mean_b,
                "delta": mean_a - mean_b,
                "p_value": p_value,
                "significant": p_value <= SIGNIFICANCE_LEVEL,
            }
        )
    return rows
