"""Command-line surface tying the modules together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

from . import __version__
from .core import load_dataset, load_embeddings, read_json_object
from .errors import BackendError, DataError, UsageError
from .harness import (
    RunConfig,
    adherence_from_report,
    compare_runs,
    file_sha256,
    load_report,
    run_eval,
    write_manifest,
)
from .lm import make_backend
from .metrics import MIN_RESAMPLES
from .ordering import MODEL_STRATEGIES, peer_prefix, strategy_permutation
from .ordering import STRATEGIES as ORDERING_STRATEGIES
from .profiling import (
    CONDITIONS,
    build_sets,
    load_profiles,
    load_sets,
    median_similarity_filter,
    profile_dataset,
    save_sets,
)
from .prompting import ANSWER_DELIMITER
from .retrieval import STRATEGIES as RETRIEVAL_STRATEGIES
from .retrieval import Pool, RetrievalConfig, retrieve, similarity

CACHE_ENV_VAR = "ICLFORGE_CACHE"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None


def _build_parser() -> _Parser:
    parser = _Parser(prog="iclforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"iclforge {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate", help="check dataset and embedding files")
    p.add_argument("--train")
    p.add_argument("--eval", dest="eval_path")
    p.add_argument("--embeddings")

    p = sub.add_parser("profile", help="write a knowledge profile store")
    p.add_argument("--train", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--cache-dir")
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-sets", help="sample in-context example sets by condition")
    p.add_argument("--profiles", required=True)
    p.add_argument("--condition", required=True, choices=CONDITIONS)
    p.add_argument("--n-sets", type=int, default=4)
    p.add_argument("--set-size", type=int, default=5)
    p.add_argument("--median-n", type=int, help="median-similarity filter size")
    p.add_argument("--band", default="0.4,0.6", help="halfknown f1 band lo,hi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("order", help="print one example's answers under a strategy")
    p.add_argument("--train", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--strategy", required=True, choices=ORDERING_STRATEGIES)
    p.add_argument("--backend")
    p.add_argument("--embeddings")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir")

    p = sub.add_parser("retrieve", help="print the shots retrieved for one query")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", dest="eval_path", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--retrieval", default="similar", choices=RETRIEVAL_STRATEGIES)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    # each flag's dest is the RunConfig field it sets; unset flags stay None
    p = sub.add_parser("eval", help="run the full evaluation pipeline")
    p.add_argument("--config", help="JSON config file mirroring the run fields")
    p.add_argument("--train", dest="train_path")
    p.add_argument("--eval", dest="eval_path")
    p.add_argument("--embeddings", dest="embeddings_path")
    p.add_argument("--backend")
    p.add_argument("--retrieval", dest="retrieval_strategy", choices=RETRIEVAL_STRATEGIES)
    p.add_argument("--strategy", dest="ordering", choices=ORDERING_STRATEGIES)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--cache-dir")
    p.add_argument("--jobs", type=int)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--eval-split", choices=("train", "dev", "test"))
    p.add_argument("--fixed-set", help="sets file produced by build-sets")
    p.add_argument("--fixed-set-index", type=int, default=0)
    p.add_argument("--no-adherence", dest="compute_adherence", action="store_false", default=None)

    p = sub.add_parser("adherence", help="compute ordering adherence from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--strategy", required=True, choices=ORDERING_STRATEGIES)
    p.add_argument("--backend", help="override the backend recorded in the manifest")
    p.add_argument("--cache-dir")

    p = sub.add_parser("compare", help="paired bootstrap comparison of two runs")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--resamples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="render the summary table from a report")
    p.add_argument("--report", required=True)

    return parser


def _cmd_validate(args) -> int:
    checked = False
    datasets = {}
    for path, split in ((args.train, "train"), (args.eval_path, "dev")):
        if path:
            datasets[path] = load_dataset(path, split=split)
            print(f"ok: {path} ({len(datasets[path])} examples)")
            checked = True
    if args.embeddings:
        table = load_embeddings(args.embeddings)
        for path, dataset in datasets.items():
            table.require(dataset.ids())
        print(f"ok: {args.embeddings} (dim {table.dim}, {len(table)} vectors)")
        checked = True
    if not checked:
        raise UsageError("nothing to validate; pass --train, --eval, or --embeddings")
    return 0


def _check_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")


def _parse_band(text: str) -> tuple[float, float]:
    """`--band lo,hi`: two finite numbers with lo <= hi."""
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --band {text!r}; expected lo,hi") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise UsageError(f"bad --band {text!r}; expected finite lo,hi with lo <= hi")
    return lo, hi


def _cmd_profile(args) -> int:
    _check_at_least("--k", args.k, 1)
    train = load_dataset(args.train, split="train")
    table = load_embeddings(args.embeddings, train)
    model = make_backend(args.backend, _cache_dir(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = out_dir / "profiles.jsonl"
    profiles = profile_dataset(train, table, model, k=args.k, store_path=store)
    write_manifest(
        out_dir,
        "profile",
        {
            "model_fingerprint": model.fingerprint,
            "k": args.k,
            "input_sha256": {
                "train": file_sha256(args.train),
                "embeddings": file_sha256(args.embeddings),
            },
            "counts": {
                "profiled": len(profiles),
                "cache_hits": getattr(model, "hits", None),
                "cache_misses": getattr(model, "misses", None),
            },
        },
    )
    print(f"profiled {len(profiles)} examples -> {store}")
    return 0


def _cmd_build_sets(args) -> int:
    _check_at_least("--n-sets", args.n_sets, 1)
    _check_at_least("--set-size", args.set_size, 1)
    if args.median_n is not None:
        _check_at_least("--median-n", args.median_n, 1)
    lo, hi = _parse_band(args.band)
    profiles = load_profiles(args.profiles)
    if args.median_n is not None:
        keep = set(median_similarity_filter(profiles, args.median_n))
        profiles = [p for p in profiles if p.example_id in keep]
    result = build_sets(
        profiles,
        args.condition,
        n_sets=args.n_sets,
        set_size=args.set_size,
        seed=args.seed,
        halfknown_band=(lo, hi),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sets_path = out_dir / "sets.jsonl"
    save_sets(result.sets, sets_path)
    write_manifest(
        out_dir,
        "build-sets",
        {
            "condition": args.condition,
            "seed": args.seed,
            "input_sha256": {"profiles": file_sha256(args.profiles)},
            "counts": {
                "eligible": result.eligible_count,
                "sets": len(result.sets),
                "set_size": args.set_size,
            },
            "fallback_used": result.fallback_used,
            "fallback_threshold": result.fallback_threshold,
        },
    )
    print(f"wrote {len(result.sets)} {args.condition} sets -> {sets_path}")
    return 0


def _cmd_order(args) -> int:
    _check_at_least("--k", args.k, 0)
    train = load_dataset(args.train, split="train")
    example = train.by_id(args.id)
    needs_model = args.strategy in MODEL_STRATEGIES
    prefix = ""
    model = None
    if needs_model:
        if not args.backend or not args.embeddings:
            raise UsageError(f"strategy {args.strategy} needs --backend and --embeddings")
        table = load_embeddings(args.embeddings, train)
        model = make_backend(args.backend, _cache_dir(args))
        prefix = peer_prefix(example, Pool.shots(train, table), table, args.k)
    permutation = strategy_permutation(
        args.strategy,
        example.answers,
        prefix=prefix,
        model=model,
        example_id=example.id,
        seed=args.seed,
    )
    print(ANSWER_DELIMITER.join(example.answers[i] for i in permutation))
    return 0


def _cmd_retrieve(args) -> int:
    _check_at_least("--k", args.k, 1)
    train = load_dataset(args.train, split="train")
    eval_ds = load_dataset(args.eval_path, split="dev")
    table = load_embeddings(args.embeddings, train)
    table.require(eval_ds.ids())
    query = eval_ds.by_id(args.id)
    pool = Pool.shots(train, table)
    shots = retrieve(
        query, pool, table, RetrievalConfig(strategy=args.retrieval, k=args.k, seed=args.seed)
    )
    for shot in shots:
        sim = similarity(query.id, shot.id, table)
        print(f"{shot.id}\t{sim!r}\t{shot.question}")
    return 0


def _cmd_eval(args) -> int:
    data: dict = {}
    if args.config:
        try:
            data = read_json_object(Path(args.config), "config").data
        except DataError as exc:  # a bad --config is a usage error
            raise UsageError(str(exc)) from exc
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    if args.fixed_set:
        if args.retrieval_strategy is not None:
            raise UsageError("--fixed-set and --retrieval are mutually exclusive")
        sets = load_sets(args.fixed_set)
        if not 0 <= args.fixed_set_index < len(sets):
            raise UsageError(
                f"--fixed-set-index {args.fixed_set_index} out of range "
                f"(file holds {len(sets)} sets)"
            )
        data["fixed_set_ids"] = list(sets[args.fixed_set_index].member_ids)
    if data.get("cache_dir") is None and os.environ.get(CACHE_ENV_VAR):
        data["cache_dir"] = os.environ[CACHE_ENV_VAR]
    missing = [
        k
        for k in ("train_path", "eval_path", "embeddings_path", "backend", "out_dir")
        if not data.get(k)
    ]
    if missing:
        raise UsageError(f"missing required eval settings: {', '.join(missing)}")
    config = RunConfig.from_dict(data)
    report = run_eval(config)
    for key in sorted(report.aggregates):
        print(f"{key}\t{report.aggregates[key]:.6f}")
    print(f"report written to {config.out_dir}")
    return 0


def _cmd_adherence(args) -> int:
    result = adherence_from_report(
        args.report,
        args.strategy,
        backend=args.backend,
        cache_dir=args.cache_dir,
        fallback_cache_dir=os.environ.get(CACHE_ENV_VAR) or None,
    )
    print(f"strategy\t{args.strategy}")
    print(f"phi\t{result.phi!r}")
    print(f"preserved_pairs\t{result.preserved_pairs}")
    print(f"violated_pairs\t{result.violated_pairs}")
    print(f"examples_counted\t{result.examples_counted}")
    return 0


def _cmd_compare(args) -> int:
    _check_at_least("--resamples", args.resamples, MIN_RESAMPLES)
    report_a = load_report(args.report_a)
    report_b = load_report(args.report_b)
    rows = compare_runs(report_a, report_b, resamples=args.resamples, seed=args.seed)
    print("metric\tmean_a\tmean_b\tdelta\tp_value\tsignificant")
    for row in rows:
        print(
            f"{row['metric']}\t{row['mean_a']:.6f}\t{row['mean_b']:.6f}\t"
            f"{row['delta']:+.6f}\t{row['p_value']:.6f}\t{'*' if row['significant'] else ''}"
        )
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.report)
    for key in sorted(report.aggregates):
        print(f"{key}\t{report.aggregates[key]:.6f}")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "profile": _cmd_profile,
    "build-sets": _cmd_build_sets,
    "order": _cmd_order,
    "retrieve": _cmd_retrieve,
    "eval": _cmd_eval,
    "adherence": _cmd_adherence,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
