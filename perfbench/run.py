"""iclforge benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload eval_similar_greedy --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` by ``gen_inputs.py``; the
package is imported from ``src/`` beside this directory and driven only
through the public functions of its modules. The benchmark repeats study
passes of the workload (see ``WORKLOADS``) until ``--seconds`` have been
spent, pools the passes into each metric and checks every output.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of the
traced passes (see ``tracing.py``) plus the tracing overhead, the traced minus
the untraced value of each end-to-end metric. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
An operation is one eval example, one profiled example or one compare call;
an operation in a call that raises, or whose output fails a check, counts as
failed, and any failed check makes the exit code 1.

Whatever ``--seed`` is, every run also generates the default seed's inputs,
makes one untimed pass over them, and checks that the sha256 digests of
those inputs and outputs equal the ones pinned in ``digests.json``;
``--pin`` rewrites that file's entry for the workload instead.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import gen_inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
DIGESTS_FILE = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLE_S = 0.2  # set-up is repeated for this long before every program call
RESAMPLES = 10_000

# the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "backend_requests_per_example": "requests/example",
    "peak_rss_mb": "MiB",
}
# Measured and printed, but not in BENCHMARK.json: on the host this was built
# on, the host's slow stretches spread them from run to run by more than the
# largest bound the benchmark may set (see README.md).
UNGATED = {
    "eval_examples_per_s": "examples/s",
    "rerun_examples_per_s": "examples/s",
    "study_s": "s",
}


def import_package():
    """Import iclforge from this checkout's src/, or exit without a result."""
    package = ROOT / "src" / "iclforge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no iclforge package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import iclforge

    if Path(iclforge.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported iclforge from {iclforge.__file__}, not {package}")
    return iclforge


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def median(values: list[float]) -> float:
    return float(statistics.median(values))


class Ledger:
    """Operations attempted and failed, and the checks that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, ops: int, label: str, fn, *args, **kwargs):
        """Run one program call covering `ops` operations; None if it raised."""
        self.attempted += ops
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is a failed operation
            self.failed += ops
            self.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, ops: int, message: str) -> None:
        if not ok:
            self.failed += ops
            self.problems.append(message)


@contextmanager
def counting_backend_calls(model_cls, counts: Counter):
    """Count calls to the in-process mock's three backend methods."""
    originals = {name: vars(model_cls)[name] for name, _ in tracing.BACKEND_OPS}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in originals.items():
        setattr(model_cls, name, counted(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(model_cls, name, fn)


class Stub:
    """The wire-protocol stub as a child process."""

    def __init__(self, fixture: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--fixture", str(fixture)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"stub did not report a port (got {line!r})")
        self.port = int(line)
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        """Counts since the previous call; the stub resets them."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class PassResult:
    """Timings and counts of one study pass."""

    # (phase, kind, wall seconds) of each timed program call; calls of one
    # kind do the same work
    calls: list[tuple[str, str, float]] = field(default_factory=list)
    eval_examples: int = 0
    rerun_examples: int = 0
    backend_requests: int = 0
    layer: dict[str, float] = field(default_factory=dict)  # per-layer facts not in spans

    def timed(self, phase: str, kind: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((phase, kind, time.perf_counter() - started))

    @property
    def seconds(self) -> dict[str, float]:
        """Wall time per phase."""
        out: dict[str, float] = {}
        for phase, _, seconds in self.calls:
            out[phase] = out.get(phase, 0.0) + seconds
        return out


def shot_reuse_share(records_path: Path) -> float:
    slots = [
        shot
        for line in records_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
        for shot in json.loads(line)["shot_ids"]
    ]
    return 1.0 - len(set(slots)) / len(slots)


class Workload:
    """Inputs, set-up and one study pass of a workload.

    Set-up is sampled before every program call, so its samples spread over
    the whole run like the phases they sit between: the host's speed changes
    from second to second, and spread samples are likelier than back-to-back
    ones to include a quiet moment.
    """

    name = ""
    # without a cache a rerun repeats its cold call's work, so both time one kind
    RERUN_REPEATS_WORK = True

    def __init__(self, pkg, inputs: Path, work: Path, ledger: Ledger) -> None:
        self.pkg = pkg
        self.inputs = inputs
        self.work = work
        self.ledger = ledger
        self.passes = 0
        self.tracing = False
        self.setup_times: dict[bool, list[float]] = {False: [], True: []}
        self.objects = None
        self.reference: dict[str, str] = {}
        self.backend_spec = self.mock_spec = f"mock:{inputs / 'mock.json'}"
        self.eval_size = 0
        self.reuse: float | None = None

    def path(self, name: str) -> str:
        return str(self.inputs / name)

    def fresh(self, label: str) -> Path:
        path = self.work / f"{label}-{self.passes}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def config(self, out_dir: Path, **overrides):
        settings = dict(
            train_path=self.path("train.jsonl"),
            eval_path=self.path("eval.jsonl"),
            embeddings_path=self.path("embeddings.jsonl"),
            backend=self.backend_spec,
            out_dir=str(out_dir),
            jobs=1,
        )
        settings.update(overrides)
        return self.pkg.RunConfig(**settings)

    def setup(self) -> None:
        """Timed set-ups for SETUP_SAMPLE_S (at least one): load_dataset (train,
        eval) + load_embeddings + make_backend."""
        deadline = time.perf_counter() + SETUP_SAMPLE_S
        while True:
            started = time.perf_counter()
            train = self.pkg.load_dataset(self.path("train.jsonl"), split="train")
            eval_ds = self.pkg.load_dataset(self.path("eval.jsonl"), split="dev")
            table = self.pkg.load_embeddings(self.path("embeddings.jsonl"), train)
            model = self.pkg.make_backend(self.backend_spec, self.setup_cache_dir())
            ended = time.perf_counter()
            self.setup_times[self.tracing].append(ended - started)
            if ended >= deadline:
                break
        self.eval_size = len(eval_ds)
        self.objects = (train, table, model)

    def setup_cache_dir(self) -> str | None:
        return None

    def check_same(self, key: str, digest: str, ops: int, phase: str = "") -> None:
        want = self.reference.setdefault(key, digest)
        self.ledger.check(digest == want, ops, f"{key} of the {phase or 'pass'} run differs "
                                               "from the first one")

    def run_eval(self, result: PassResult, phase: str, config, label: str, sample=True):
        """One run_eval call timed into `phase`; its records and summary must not change."""
        if sample:
            self.setup()
        n = self.eval_size
        kind = f"run_eval:{label}" if self.RERUN_REPEATS_WORK else f"run_eval:{phase}:{label}"
        report = self.ledger.call(n, label, result.timed, phase, kind, self.pkg.run_eval,
                                  config)
        if report is None:
            return None
        out_dir = Path(config.out_dir)
        for name in ("records.jsonl", "summary.tsv"):
            self.check_same(f"{label}/{name}", sha256_file(out_dir / name), n, phase)
        if self.reuse is None:
            self.reuse = shot_reuse_share(out_dir / "records.jsonl")
        return report

    def cold_eval(self, result: PassResult, config, label: str):
        """A cold run whose calls to the in-process mock are counted."""
        counts: Counter = Counter()
        with counting_backend_calls(self.pkg.MockModel, counts):
            report = self.run_eval(result, "eval", config, label)
        result.eval_examples += self.eval_size
        result.backend_requests += sum(counts.values())
        return report

    def rerun(self, result: PassResult, config, label: str):
        """The same run_eval into a fresh out dir, with what the cold run left behind."""
        report = self.run_eval(result, "rerun", config, label)
        result.rerun_examples += self.eval_size
        return report

    def study(self, result: PassResult) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Untimed checks made once per benchmark run."""

    def pinned_pass(self, pin: bool) -> None:
        """One untimed pass whose output digests ``digests.json`` pins; `pin`
        when it is the pass that writes them."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class EvalSimilarGreedy(Workload):
    """Ordering study: kNN shots from a 2000-example pool, greedy answer order."""

    name = "eval_similar_greedy"

    def eval_config(self, out_dir: Path, **overrides):
        return self.config(out_dir, retrieval_strategy="similar", k=5, ordering="greedy",
                           **overrides)

    def study(self, result: PassResult) -> None:
        self.cold_eval(result, self.eval_config(self.fresh("cold")), "greedy")
        self.rerun(result, self.eval_config(self.fresh("rerun")), "greedy")

    def pinned_pass(self, pin: bool) -> None:
        # the pins are written at jobs=1 and checked at jobs=2, so this one
        # run also checks that jobs=2 gives the same bytes
        self.setup()
        config = self.eval_config(self.fresh("pinned"), jobs=1 if pin else 2)
        self.run_eval(PassResult(), "pinned", config, "greedy", sample=False)


class KnowledgeSets(Workload):
    """Knowledge-set study: profile, build all four sets, fixed-set evals, compare."""

    name = "knowledge_sets"

    def fixed_config(self, out_dir: Path, condition: str, member_ids):
        """The unknown set is evaluated against mock_unknown.json, whose eval
        answers differ: the mock ignores the shots, so only a second fixture
        gives compare_runs paired differences."""
        mock = "mock_unknown.json" if condition == "unknown" else "mock.json"
        return self.config(out_dir, ordering="perplexity", fixed_set_ids=tuple(member_ids),
                           backend=f"mock:{self.inputs / mock}")

    def study(self, result: PassResult) -> None:
        pkg, ledger = self.pkg, self.ledger
        self.setup()
        train, table, model = self.objects
        store = self.fresh("profiles") / "profiles.jsonl"
        store.parent.mkdir(parents=True)
        n_candidates = sum(1 for ex in train if ex.prompt_safe)
        profiles = ledger.call(n_candidates, "profile_dataset", result.timed, "profile",
                               "profile_dataset", pkg.profile_dataset, train, table, model,
                               store_path=store)
        if profiles is None:
            return
        result.layer["profile_examples"] = len(profiles)
        sets = {}
        for condition in pkg.profiling.CONDITIONS:
            built = result.timed("sets", f"build_sets:{condition}", pkg.build_sets, profiles,
                                 condition)
            sets[condition] = [list(s.member_ids) for s in built.sets]
        middle = result.timed("sets", "median_similarity_filter", pkg.median_similarity_filter,
                              profiles, len(profiles) // 2)
        self.check_same("profiles.jsonl", sha256_file(store), n_candidates)
        self.check_same("sets.json", sha256_json({"sets": sets, "median": middle}), n_candidates)
        cold = {c: self.fresh(f"cold-{c}") for c in ("known", "unknown")}
        for condition, out_dir in cold.items():
            self.cold_eval(result, self.fixed_config(out_dir, condition, sets[condition][0]),
                           condition)
        for condition in cold:
            self.rerun(result, self.fixed_config(self.fresh(f"rerun-{condition}"), condition,
                                                 sets[condition][0]), condition)
        self.setup()
        reports = [ledger.call(0, "load_report", pkg.load_report, cold[c])
                   for c in ("known", "unknown")]
        if None in reports:
            ledger.check(False, 1, "compare skipped: a report did not load")
            return
        rows = ledger.call(1, "compare_runs", result.timed, "compare", "compare_runs",
                           pkg.compare_runs, *reports, resamples=RESAMPLES, seed=0)
        if rows is not None:
            result.layer["compare_metrics"] = len(rows)
            result.layer["compare_n"] = len(reports[0].records)
            self.check_same("compare.json", sha256_json(rows), 1)

    def pinned_pass(self, pin: bool) -> None:
        self.study(PassResult())


class RemoteCachedRerun(Workload):
    """Real backend: the HTTP stub behind the on-disk cache; cold run, warm reruns."""

    name = "remote_cached_rerun"
    RERUN_REPEATS_WORK = False  # warm reruns read the cache the cold run wrote
    WARM_RERUNS = 4  # the cold run is long, so its pass holds several short reruns

    def __init__(self, pkg, inputs: Path, work: Path, ledger: Ledger, serve: bool = True) -> None:
        super().__init__(pkg, inputs, work, ledger)
        self.stub = Stub(inputs / "mock.json") if serve else None
        if self.stub:
            self.backend_spec = f"remote:{self.stub.url}"

    def setup_cache_dir(self) -> str:
        return str(self.work / "setup-cache")

    def eval_config(self, out_dir: Path, **overrides):
        return self.config(out_dir, retrieval_strategy="diverse", k=5, ordering="greedy",
                           **overrides)

    def study(self, result: PassResult) -> None:
        ledger, n = self.ledger, self.eval_size
        cache = self.fresh("cache")
        self.stub.stats()
        cold = self.run_eval(result, "eval", self.eval_config(self.fresh("cold"),
                                                               cache_dir=str(cache)), "remote")
        result.eval_examples += n
        stats = self.stub.stats()
        requests = sum(stats["requests"].values())
        result.backend_requests += requests
        result.layer["server_busy_s"] = stats["busy_s"]
        files = sorted(cache.glob("*.json"))
        result.layer["cache_files"] = len(files)
        result.layer["cache_bytes"] = sum(f.stat().st_size for f in files)
        if cold is not None:
            misses = cold.manifest["counts"]["cache_misses"]
            ledger.check(misses == requests == stats["distinct_bodies"] == len(files), n,
                         f"cold run: {misses} cache misses, {requests} requests, "
                         f"{stats['distinct_bodies']} distinct bodies, {len(files)} cache files")
        for i in range(self.WARM_RERUNS):
            config = self.eval_config(self.fresh(f"warm{i}"), cache_dir=str(cache))
            warm = self.rerun(result, config, "remote")
            stats = self.stub.stats()
            result.layer["server_busy_s"] += stats["busy_s"]
            if warm is not None:
                hits = warm.manifest["counts"]["cache_hits"]
                ledger.check(sum(stats["requests"].values()) == 0 and hits == requests, n,
                             f"warm rerun sent {stats['requests']} and hit the cache "
                             f"{hits} times")
        shutil.rmtree(cache, ignore_errors=True)

    def final_checks(self) -> None:
        self.inprocess_eval()

    def inprocess_eval(self) -> None:
        """One untimed run on the in-process mock; its bytes must equal the remote runs'."""
        self.run_eval(PassResult(), "inprocess",
                      self.eval_config(self.fresh("inprocess"), backend=self.mock_spec),
                      "remote", sample=False)

    def pinned_pass(self, pin: bool) -> None:
        # remote runs must equal the in-process mock (final_checks), so pinning
        # the in-process bytes pins theirs too
        self.setup()
        self.inprocess_eval()

    def close(self) -> None:
        if self.stub:
            self.stub.close()


WORKLOADS = {cls.name: cls for cls in (EvalSimilarGreedy, KnowledgeSets, RemoteCachedRerun)}


def end_to_end(results: list[PassResult], setup_times: list[float]) -> dict[str, float]:
    """Every timing is built from the fastest call of each kind over all
    passes of the run.

    The host slows a running program by up to 2x, in bursts from under a
    second to minutes, and never speeds it up, so the fastest call of a kind
    is the one that measures the program; a mean or median follows the host.
    """
    durations: dict[str, list[float]] = {}
    calls: Counter = Counter()
    for result in results:
        for phase, kind, seconds in result.calls:
            durations.setdefault(kind, []).append(seconds)
            calls[phase, kind] += 1

    def pass_time(*phases: str) -> float:
        """Seconds of one pass spent in `phases` (all phases if none given)."""
        return sum(min(durations[kind]) * n / len(results)
                   for (phase, kind), n in calls.items() if not phases or phase in phases)

    def per_pass(fn) -> float:
        return sum(fn(r) for r in results) / len(results)

    return {
        "setup_s": min(setup_times),
        "eval_examples_per_s": per_pass(lambda r: r.eval_examples) / pass_time("eval"),
        "rerun_examples_per_s": per_pass(lambda r: r.rerun_examples) / pass_time("rerun"),
        "study_s": pass_time(),
        "backend_requests_per_example":
            per_pass(lambda r: r.backend_requests) / per_pass(lambda r: r.eval_examples),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this workload's default-seed digests into digests.json")
    args = parser.parse_args()

    # a terminated run still stops the stub and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pkg = import_package()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(pkg, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def run(pkg, args, work: Path) -> int:
    inputs = work / "inputs"
    properties = gen_inputs.generate(args.workload, args.seed, inputs)
    ledger = Ledger()
    workload = WORKLOADS[args.workload](pkg, inputs, work, ledger)
    results: dict[bool, list[PassResult]] = {False: [], True: []}
    tracers = []
    rss_untraced = None
    try:
        workload.setup()
        started = time.perf_counter()
        while True:
            traced = bool(args.trace and workload.passes % 2)
            result = PassResult()
            if traced:
                if rss_untraced is None:
                    rss_untraced = peak_rss_mb()
                workload.tracing = True
                with tracing.Tracer() as tracer:
                    workload.study(result)
                workload.tracing = False
                tracers.append((tracer, result))
            else:
                workload.study(result)
            results[traced].append(result)
            workload.passes += 1
            elapsed = time.perf_counter() - started
            enough = results[False] and (results[True] or not args.trace)
            # stop before a pass that would end more than half a pass late
            if ledger.failed or (enough and elapsed + 0.5 * sum(result.seconds.values())
                                 >= args.seconds):
                break
        workload.final_checks()
        check_digests(args, pkg, work, ledger)
    finally:
        workload.close()

    metrics: dict[str, tuple[float, str]] = {}
    ungated: dict[str, tuple[float, str]] = {}
    if not ledger.failed:
        untraced = end_to_end(results[False], workload.setup_times[False])
        ungated = {key: (untraced[key], unit) for key, unit in UNGATED.items()}
        if args.trace:
            metrics = layer_metrics(tracers, workload)
            traced = end_to_end(results[True], workload.setup_times[True])
            # the peak is process-wide: report how far the traced passes raised it
            traced["peak_rss_mb"] -= rss_untraced
            untraced["peak_rss_mb"] = 0.0
            for key, unit in {**END_TO_END, **UNGATED}.items():
                metrics[f"trace.overhead.{key}"] = (traced[key] - untraced[key], unit)
        else:
            metrics = {key: (untraced[key], unit) for key, unit in END_TO_END.items()}

    print_report(args, workload, properties, results, ledger, ungated, metrics)
    correct = ledger.failed == 0 and not ledger.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def check_digests(args, pkg, work: Path, ledger: Ledger) -> None:
    """The default seed's inputs and the outputs of one untimed pass over them
    must hash to the pinned digests."""
    inputs = work / "pinned" / "inputs"
    gen_inputs.generate(args.workload, DEFAULT_SEED, inputs)
    extra = {"serve": False} if args.workload == RemoteCachedRerun.name else {}
    workload = WORKLOADS[args.workload](pkg, inputs, inputs.parent, ledger, **extra)
    workload.pinned_pass(args.pin)
    current = {
        "inputs": {p.name: sha256_file(p) for p in sorted(inputs.iterdir())},
        "outputs": dict(sorted(workload.reference.items())),
    }
    pinned = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    if args.pin:
        pinned[args.workload] = current
        DIGESTS_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        return
    want = pinned.get(args.workload, {})
    mismatches = [
        f"{kind} {key}: sha256 {str(current[kind].get(key))[:12]} "
        f"!= pinned {str(want.get(kind, {}).get(key))[:12]}"
        for kind in ("inputs", "outputs")
        for key in sorted(set(current[kind]) | set(want.get(kind, {})))
        if current[kind].get(key) != want.get(kind, {}).get(key)
    ]
    if mismatches:
        # every operation of the run fed the artifacts that changed
        ledger.failed = ledger.attempted
        ledger.problems.extend(mismatches)


def layer_metrics(tracers, workload: Workload) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of each traced pass; the median over traced passes."""
    per_pass = [pass_layer_metrics(tracer, result, workload) for tracer, result in tracers]
    return {
        key: (median([m[key][0] for m in per_pass]), per_pass[0][key][1])
        for key in per_pass[0]
    }


def pass_layer_metrics(tracer, result: PassResult, workload: Workload):
    spans = tracer.spans
    selfs = tracer.self_times()
    parents = {span.parent for span in spans}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, []))

    def self_total(*names):
        return sum(selfs[i] for name in names for i in by_name.get(name, []))

    def counted(name, parent=None):
        return sum(n for (fn, p), n in tracer.counts.items()
                   if fn == name and (parent is None or p == parent))

    m: dict[str, tuple[float, str]] = {}
    # set-up is sampled for a fixed time, not a fixed count, so these are per call
    for name in ("core.load_dataset", "core.load_embeddings", "lm.make_backend"):
        m[f"{name}.s"] = (total(name) / calls(name) if calls(name) else 0.0, "s")
    m["retrieval.retrieve.calls"] = (calls("retrieval.retrieve"), "count")
    m["retrieval.retrieve.s"] = (total("retrieval.retrieve"), "s")
    m["retrieval.similarity.calls"] = (counted("retrieval.similarity"), "count")
    for parent in ("retrieval.retrieve", "profiling.profile_example"):
        m[f"retrieval.similarity.calls_in_{parent.split('.')[1]}"] = (
            counted("retrieval.similarity", parent), "count")
    kmeans_keys = [spans[i].note for i in by_name.get("retrieval.kmeans", [])]
    m["retrieval.kmeans.calls"] = (len(kmeans_keys), "count")
    m["retrieval.kmeans.s"] = (total("retrieval.kmeans"), "s")
    m["retrieval.kmeans.repeat_share"] = (
        1.0 - len(set(kmeans_keys)) / len(kmeans_keys) if kmeans_keys else 0.0, "ratio")
    m["ordering.strategy_permutation.calls"] = (calls("ordering.strategy_permutation"), "count")
    m["ordering.strategy_permutation.self_s"] = (self_total("ordering.strategy_permutation"), "s")
    m["ordering.answer_perplexity.calls"] = (counted("ordering.answer_perplexity"), "count")
    m["prompting.render_prompt.calls"] = (calls("prompting.render_prompt"), "count")
    m["prompting.render_prompt.s"] = (total("prompting.render_prompt"), "s")
    m["prompting.parse_answers.s"] = (total("prompting.parse_answers"), "s")
    for op in ("score", "next_token", "generate"):
        m[f"lm.{op}.calls"] = (calls(f"lm.{op}"), "count")
        m[f"lm.{op}.s"] = (total(f"lm.{op}"), "s")
    notes = [spans[i].note for i in by_name.get("lm.generate", [])]
    m["lm.generate.tokens_mean"] = (
        statistics.fmean(n[0] for n in notes) if notes else 0.0, "tokens")
    m["lm.generate.cap_hits"] = (sum(int(n[1]) for n in notes), "count")
    # share of generation time spent in generations that ran to the cap
    generate_s = total("lm.generate")
    capped_s = sum(spans[i].end - spans[i].start for i in by_name.get("lm.generate", [])
                   if spans[i].note[1])
    m["lm.generate.cap_s_share"] = (capped_s / generate_s if generate_s else 0.0, "ratio")
    remote_ms = sorted(1000.0 * (s.end - s.start) for s in spans if s.tag == "remote")
    m["lm.remote.requests"] = (len(remote_ms), "count")
    m["lm.remote.request_ms.p50"] = (statistics.median(remote_ms) if remote_ms else 0.0, "ms")
    m["lm.remote.request_ms.p99"] = (
        statistics.quantiles(remote_ms, n=100)[98] if len(remote_ms) >= 100 else 0.0, "ms")
    m["lm.remote.server_busy_s"] = (result.layer.get("server_busy_s", 0.0), "s")
    cache_ops = [f"lm.cache.{op}" for op in ("score", "next_token", "generate")]
    cache_spans = [i for name in cache_ops for i in by_name.get(name, [])]
    misses = sum(1 for i in cache_spans if i in parents)
    m["lm.cache.hits"] = (len(cache_spans) - misses, "count")
    m["lm.cache.misses"] = (misses, "count")
    m["lm.cache.self_s"] = (self_total(*cache_ops), "s")
    m["lm.cache.files"] = (result.layer.get("cache_files", 0), "count")
    m["lm.cache.bytes"] = (result.layer.get("cache_bytes", 0), "bytes")
    m["metrics.set_scores.s"] = (total("metrics.set_scores"), "s")
    m["metrics.adherence_phi.s"] = (total("metrics.adherence_phi"), "s")
    m["metrics.paired_bootstrap.calls"] = (calls("metrics.paired_bootstrap"), "count")
    m["metrics.paired_bootstrap.s"] = (total("metrics.paired_bootstrap"), "s")
    m["profiling.profile_dataset.s"] = (total("profiling.profile_dataset"), "s")
    m["profiling.profile_example.calls"] = (calls("profiling.profile_example"), "count")
    m["profiling.profile_example.self_s"] = (self_total("profiling.profile_example"), "s")
    for name in ("build_sets", "median_similarity_filter", "save_profiles"):
        m[f"profiling.{name}.s"] = (total(f"profiling.{name}"), "s")
    m["harness.run_eval.calls"] = (calls("harness.run_eval"), "count")
    m["harness.run_eval.self_s"] = (self_total("harness.run_eval"), "s")
    m["harness.adherence_for_records.s"] = (total("harness.adherence_for_records"), "s")
    m["harness.compare_runs.s"] = (total("harness.compare_runs"), "s")
    m["harness.compare_runs.self_s"] = (self_total("harness.compare_runs"), "s")
    m["harness.shot_reuse_share"] = (workload.reuse or 0.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def print_report(args, workload, properties, results, ledger, ungated, metrics) -> None:
    untraced = results[False]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(results[True])} traced")
    props = dict(properties, shot_reuse_share=workload.reuse)
    print("inputs " + json.dumps({k: v for k, v in props.items()
                                  if k not in ("workload", "seed")}, sort_keys=True))
    if untraced and not ledger.failed:
        phases = {k: median([r.seconds.get(k, 0.0) for r in untraced])
                  for k in untraced[0].seconds}
        print("phase medians (s) " + "  ".join(f"{k} {v:.3f}" for k, v in phases.items()))
        first = untraced[0].layer
        if "profile" in phases:
            print(f"  profile_examples_per_s {first['profile_examples'] / phases['profile']:.4g}"
                  f" examples/s  (n={first['profile_examples']})")
        if "compare" in phases:
            print(f"  compare_resamples_per_s "
                  f"{first['compare_metrics'] * RESAMPLES / phases['compare']:.4g} resamples/s"
                  f"  ({first['compare_metrics']} metrics x {RESAMPLES} resamples, "
                  f"n={first['compare_n']})")
    for key, (value, unit) in ungated.items():
        print(f"  {key} {value:.6g} {unit}  (not gated)")
    share = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"operations attempted {ledger.attempted}  failed {ledger.failed}  "
          f"failed_ops_share {share:.4g} ratio")
    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
