"""Language-model oracle: scoring, constrained next-token queries, generation.

Three backends share one interface: a deterministic rule-table mock, an HTTP
client for a remote scoring service, and a persistent on-disk cache wrapper
that is semantically transparent over either.

Mock probability law. The mock tokenizes by splitting on single spaces. For a
context string, the applicable rules are those whose ``context_suffix`` is the
longest suffix (ignoring trailing spaces) matched by any rule. Tokens named by
the applicable rules share probability mass ``1 - u * floor`` proportionally
to their weights, where ``u`` counts the unnamed vocabulary tokens, each of
which receives exactly ``floor``. With no matching rule the distribution is
uniform over the vocabulary. Tokens outside the vocabulary always score
``floor``, keeping every log-probability finite.

The mock answers a query from a suffix index built with it: each distinct
``context_suffix`` maps to its rules in rule order, and the distinct suffix
lengths are tried longest first, one slice and one dict lookup each. Only the
tokens of the matched group get a probability computed; the full distribution
is never built.

Building a mock checks each rule and indexes it in one pass, then hashes the
table for its fingerprint: ``mock:`` and 16 hex digits of the sha256 of the
canonical JSON ``json.dumps({"floor", "rules", "vocab"}, sort_keys=True,
ensure_ascii=False)``. A fixture file's int weight is read as a float. Every
byte of that JSON is written by the encoders ``json.dumps`` itself uses, so a
fingerprint never changes with how it is computed.
"""

from __future__ import annotations

import abc
import hashlib
import json
import logging
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .core import Fields, atomic_write_text, decode_json, read_json_object
from .errors import DataError, ProtocolError, TransportError, UsageError

log = logging.getLogger(__name__)

DEFAULT_FLOOR = 1e-6


def _check_logprobs(logprobs: Sequence[float]) -> None:
    for lp in logprobs:
        if not math.isfinite(lp) or lp > 0.0:
            raise ProtocolError(f"log-probability {lp} is positive or not finite")


@dataclass(frozen=True)
class TokenScores:
    """Backend-reported tokens of a continuation with per-token log-probabilities."""

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logprobs):
            raise ProtocolError(
                f"token/logprob length mismatch: {len(self.tokens)} vs {len(self.logprobs)}"
            )
        if not self.tokens:
            raise ProtocolError("empty token list for a non-empty continuation")
        _check_logprobs(self.logprobs)

    @property
    def token_count(self) -> int:
        return len(self.tokens)


class LanguageModel(abc.ABC):
    """Scoring and generation oracle. All implementations are deterministic.

    ``score_continuation`` and ``next_token_distribution`` agree: for a
    continuation ``" " + " ".join(tokens)`` scored after ``context``, the
    logprob of ``tokens[j]`` equals ``next_token_distribution(context + " " +
    " ".join(tokens[:j]), [tokens[j]])[0]``, trailing spaces of a context
    being ignored. Greedy ordering relies on it: a step's candidate logprobs
    read from per-answer score replies equal those ``next_token_distribution``
    gives, so the order does not depend on which of the two it asks.

    A backend whose ``splits_on_spaces`` is True promises more: the tokens of
    every ``score_continuation`` reply are the continuation split on single
    spaces with empty pieces dropped, whatever the context. Greedy then
    tokenizes an answer set itself instead of asking the backend.
    """

    @property
    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Stable identifier keying caches and knowledge profiles."""

    @property
    def splits_on_spaces(self) -> bool:
        """Whether ``score_continuation`` tokenizes by splitting on single spaces."""
        return False

    @abc.abstractmethod
    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        """Per-token log-probabilities of `continuation` given `context`."""

    @abc.abstractmethod
    def next_token_distribution(
        self, context: str, candidates: Sequence[str]
    ) -> list[float]:
        """Log-probability of each candidate as the single next token."""

    @abc.abstractmethod
    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        """Greedy generation, truncated before the first stop string."""


def _tokenize_with_offsets(text: str) -> list[tuple[str, int]]:
    """Split on single spaces, keeping each token's start offset."""
    tokens: list[tuple[str, int]] = []
    offset = 0
    for piece in text.split(" "):
        if piece:
            tokens.append((piece, offset))
        offset += len(piece) + 1
    return tokens


class MockRule(NamedTuple):
    """One row of the mock's rule table: after a context whose longest matched
    suffix is `context_suffix`, `token` shares that suffix's mass by `weight`."""

    context_suffix: str
    token: str
    weight: float


# rules hashed per update when fingerprinting a mock
_FINGERPRINT_RUN = 256


def _json_number(value: int | float) -> str:
    """`value` as ``json.dumps`` writes it, through ``int.__repr__`` or
    ``float.__repr__``: a subclass's own repr, such as numpy's ``np.float64(0.1)``,
    is not JSON."""
    return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)


def _mock_fingerprint(vocab: tuple[str, ...], rules: tuple[MockRule, ...], floor: float) -> str:
    """``mock:`` and 16 hex digits of the sha256 of the fixture's canonical JSON.

    The canonical JSON is ``json.dumps(payload, sort_keys=True, ensure_ascii=False)``
    of ``{"vocab", "rules", "floor"}``. Each rule's object is written here with the
    encoder ``json.dumps`` uses for strings and the repr it uses for numbers, keys
    in sorted order, so the bytes are the same. They are hashed in runs of rules,
    so the whole fixture is never held as one string.
    """
    encode = json.encoder.encode_basestring  # the C encoder of ensure_ascii=False
    digest = hashlib.sha256()
    digest.update(f'{{"floor": {json.dumps(floor)}, "rules": ['.encode("utf-8"))
    for start in range(0, len(rules), _FINGERPRINT_RUN):
        # a plain float, the type of every weight a fixture file gives, is written by its repr
        text = ", ".join(
            f'{{"context_suffix": {encode(suffix)}, "token": {encode(token)}, '
            f'"weight": {repr(weight) if type(weight) is float else _json_number(weight)}}}'
            for suffix, token, weight in rules[start : start + _FINGERPRINT_RUN]
        )
        digest.update((", " + text if start else text).encode("utf-8"))
    vocab_json = json.dumps(list(vocab), ensure_ascii=False)
    digest.update(f'], "vocab": {vocab_json}}}'.encode("utf-8"))
    return f"mock:{digest.hexdigest()[:16]}"


class MockModel(LanguageModel):
    """Deterministic rule-table mock with a space-splitting tokenizer."""

    def __init__(
        self,
        vocab: Sequence[str],
        rules: Sequence[MockRule] = (),
        floor: float = DEFAULT_FLOOR,
    ) -> None:
        if not vocab:
            raise DataError("mock vocabulary is empty")
        if len(set(vocab)) != len(vocab):
            raise DataError("mock vocabulary has duplicate tokens")
        for token in vocab:
            if not isinstance(token, str) or not token or " " in token:
                raise DataError(f"bad vocabulary token {token!r}")
        vocab_set = set(vocab)
        self.rules = tuple(rules)
        # suffix -> its rule, or a tuple of its rules in rule order; one object
        # per rule, not a probability table per suffix, keeps the index small
        index: dict[str, MockRule | tuple[MockRule, ...]] = {}
        shared_suffixes: dict[str, list[MockRule]] = {}
        for rule in self.rules:
            suffix, token, w = rule
            if not isinstance(suffix, str):
                raise DataError(f"rule context_suffix must be a string in {rule}")
            if not isinstance(token, str) or token not in vocab_set:
                raise DataError(f"rule token {token!r} not in vocabulary")
            if isinstance(w, bool) or not (isinstance(w, (int, float)) and 0 < w < math.inf):
                raise DataError(f"rule weight must be a positive finite number in {rule}")
            if suffix in index:
                shared_suffixes.setdefault(suffix, [index[suffix]]).append(rule)
            else:
                index[suffix] = rule
        if not 0 < floor < 1 / (len(vocab) + 1):
            raise DataError(f"floor probability {floor} out of range")
        for suffix, group in shared_suffixes.items():
            index[suffix] = tuple(group)
        self.vocab = tuple(vocab)
        self.floor = float(floor)
        self.generation_cap_hits = 0
        self._cap_lock = threading.Lock()
        self._vocab_set = vocab_set
        self._by_suffix = index
        self._suffix_lengths = sorted({len(suffix) for suffix in index}, reverse=True)
        self._fingerprint = _mock_fingerprint(self.vocab, self.rules, self.floor)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockModel":
        fixture = read_json_object(Path(path), "mock fixture")
        records = fixture.get("rules", list, [], of=dict)
        vocab = fixture.get("vocab", list, of=str)
        # each rule shares its vocabulary token's string: the decoder makes one per occurrence
        own = {token: token for token in vocab}
        rules = []
        for r in records:
            token, weight = r.get("token"), r.get("weight")
            if type(token) is str:
                token = own.get(token, token)
            if type(weight) is int:  # read as a float, so the fingerprint stays that of the float
                weight = float(weight)
            rules.append(MockRule(r.get("context_suffix"), token, weight))
        try:
            return cls(vocab, rules, fixture.get("floor", float, DEFAULT_FLOOR))
        except DataError as exc:
            raise fixture.fail(str(exc)) from exc

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def splits_on_spaces(self) -> bool:
        return True

    def _named_probabilities(self, context: str) -> dict[str, float] | None:
        """Probabilities of the tokens the longest matching suffix names, or None
        when no rule matches; every other vocabulary token holds ``floor``."""
        effective = context.rstrip(" ")
        end = len(effective)
        for length in self._suffix_lengths:
            if length <= end:
                group = self._by_suffix.get(effective[end - length :])
                if group is not None:
                    break
        else:
            return None
        named: dict[str, float] = {}
        for rule in (group,) if isinstance(group, MockRule) else group:
            named[rule.token] = named.get(rule.token, 0.0) + rule.weight
        total_weight = sum(named.values())
        shared = 1.0 - (len(self.vocab) - len(named)) * self.floor
        for token, weight in named.items():
            named[token] = weight / total_weight * shared
        return named

    def _probabilities(self, context: str, tokens: Sequence[str]) -> list[float]:
        """Next-token probability of each of `tokens`; ``floor`` outside the vocabulary."""
        named = self._named_probabilities(context)
        if named is None:
            uniform = 1.0 / len(self.vocab)
            return [uniform if t in self._vocab_set else self.floor for t in tokens]
        return [named.get(t, self.floor) for t in tokens]

    def _greedy_token(self, context: str) -> str:
        """The most probable next token, ties broken to the smallest."""
        named = self._named_probabilities(context)
        if named is None:
            return min(self.vocab)
        # an unnamed token never wins: the likeliest named token holds at least
        # (1 - u * floor) / (V - u) > floor, as floor < 1 / (V + 1)
        best_prob = max(named.values())
        return min(t for t, p in named.items() if p == best_prob)

    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        if not continuation:
            raise DataError("continuation must be non-empty")
        spans = _tokenize_with_offsets(continuation)
        if not spans:
            raise DataError(f"continuation {continuation!r} has no tokens")
        tokens: list[str] = []
        logprobs: list[float] = []
        for token, start in spans:
            (prob,) = self._probabilities(context + continuation[:start], (token,))
            tokens.append(token)
            logprobs.append(math.log(prob))
        return TokenScores(tuple(tokens), tuple(logprobs))

    def next_token_distribution(
        self, context: str, candidates: Sequence[str]
    ) -> list[float]:
        if not candidates:
            raise DataError("candidate list is empty")
        if len(set(candidates)) != len(candidates):
            raise DataError("candidate list has duplicates")
        for candidate in candidates:
            if not candidate or " " in candidate:
                raise DataError(f"candidate {candidate!r} is not a single token")
        return [math.log(p) for p in self._probabilities(context, candidates)]

    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        if max_tokens < 1:
            raise DataError("max_tokens must be at least 1")
        for s in stop:
            if not s:
                raise DataError("stop strings must be non-empty")
        text = ""
        for step in range(max_tokens):
            token = self._greedy_token(prompt + " " + text if step else prompt)
            text = text + " " + token if step else token
            cut = min((i for i in (text.find(s) for s in stop) if i != -1), default=-1)
            if cut != -1:
                return text[:cut]
        with self._cap_lock:
            self.generation_cap_hits += 1
        return text


def _token_scores(response: Fields) -> TokenScores:
    return TokenScores(
        tuple(response.get("tokens", list, of=str)), tuple(response.get("logprobs", list, of=float))
    )


def _candidate_logprobs(response: Fields, candidates: Sequence[str]) -> list[float]:
    logprobs = response.get("logprobs", list, of=float)
    if len(logprobs) != len(candidates):
        raise response.fail(f"{len(logprobs)} logprobs for {len(candidates)} candidates")
    _check_logprobs(logprobs)
    return logprobs


class RemoteModel(LanguageModel):
    """Client for the HTTP scoring service.

    Transport failures (connection errors, timeouts, 5xx) are retried with
    exponential backoff; protocol violations are never retried.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.5,
    ) -> None:
        # loaded when a remote backend is built, not with this module, so that a
        # run on the mock never loads the HTTP stack
        import urllib.parse
        import urllib.request

        self.base_url = base_url.rstrip("/")
        # http.client sends the request line as ASCII and refuses a space or a
        # control character in it
        bad = next((ch for ch in base_url if not "!" <= ch <= "~"), None)
        if bad is not None:
            raise UsageError(
                f"bad remote URL {base_url!r}: {bad!r} must be percent-encoded"
            )
        try:
            parts = urllib.parse.urlsplit(self.base_url)
            parts.port  # raises ValueError for a port that is not a number
        except ValueError as exc:
            raise UsageError(f"bad remote URL {base_url!r}: {exc}") from exc
        # urllib neither strips nor sends credentials in the URL: http.client
        # would read "pass@host" as the port
        has_credentials = parts.username is not None
        if parts.scheme not in ("http", "https") or not parts.hostname or has_credentials:
            raise UsageError(
                f"bad remote URL {base_url!r}; expected http(s)://host[:port] without credentials"
            )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        # honours HTTP(S)_PROXY and NO_PROXY as they stand when the backend is built
        self._opener = urllib.request.build_opener()

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.base_url}"

    def _post(self, endpoint: str, payload: dict) -> Fields:
        # one connection per request, shared by no thread; a kept-alive
        # connection measured slower against a localhost server (44 ms a call,
        # a delayed-ACK stall, against 0.23 ms for a fresh one)
        import http.client
        import urllib.error
        import urllib.request

        url = f"{self.base_url}{endpoint}"
        data = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            # a fresh Request each attempt: sending one through a proxy rewrites
            # it, and a reused https request would go out as plain http
            request = urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"}
            )
            try:
                with self._opener.open(request, timeout=self.timeout) as response:
                    status, raw = response.status, response.read()
            except urllib.error.HTTPError as exc:
                status, raw = exc.code, b""
                exc.close()
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                log.warning("transport error on %s (attempt %d): %s", url, attempt + 1, exc)
                continue
            if status >= 500:
                last_error = TransportError(f"{url} returned {status}")
                log.warning("server error on %s (attempt %d)", url, attempt + 1)
                continue
            if status != 200:
                raise ProtocolError(f"{url} returned {status}")
            try:
                # strict UTF-8, as a surrogate's bytes would decode to a lone one
                text = raw.decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"{url} returned non-JSON body: {exc}") from exc
            return Fields(decode_json(text, url, error=ProtocolError), url, error=ProtocolError)
        raise TransportError(f"backend unreachable after {self.retries + 1} attempts: {last_error}")

    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        if not continuation:
            raise DataError("continuation must be non-empty")
        body = self._post("/v1/score", {"context": context, "continuation": continuation})
        return _token_scores(body)

    def next_token_distribution(
        self, context: str, candidates: Sequence[str]
    ) -> list[float]:
        if not candidates:
            raise DataError("candidate list is empty")
        body = self._post("/v1/next_token", {"context": context, "candidates": list(candidates)})
        return _candidate_logprobs(body, candidates)

    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        body = self._post(
            "/v1/generate",
            {"prompt": prompt, "stop": list(stop), "max_tokens": int(max_tokens)},
        )
        return body.get("text", str)


class CachedModel(LanguageModel):
    """Persistent cache wrapper; one JSON file per request under `cache_dir`.

    Keys are content hashes over the canonicalized request (including the
    inner backend's fingerprint). An entry that is not JSON, holds another
    request or whose response has the wrong shape for its op (the shape of a
    remote reply) is discarded, recomputed and counted as a miss.

    ``splits_on_spaces`` is the inner backend's, so greedy asks a cache over the
    mock for no answer line, just as it asks the bare mock for none.
    """

    def __init__(self, inner: LanguageModel, cache_dir: str | Path) -> None:
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # such as an existing file
            raise UsageError(
                f"cannot make cache directory {self.cache_dir}: {exc.strerror or exc}"
            ) from exc
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    @property
    def splits_on_spaces(self) -> bool:
        return self.inner.splits_on_spaces

    @property
    def generation_cap_hits(self) -> int | None:
        return getattr(self.inner, "generation_cap_hits", None)

    def _fetch(self, request: dict, compute, decode):
        """`decode` of the response cached for `request`, or of `compute()` on a miss."""
        canonical = json.dumps(request, sort_keys=True, ensure_ascii=False)
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        path = self.cache_dir / f"{key}.json"
        if path.exists():
            try:
                entry = read_json_object(path, "cache entry")
                if entry.data.get("request") != request:
                    raise entry.fail("request mismatch")
                result = decode(entry.get("response", dict))
                with self._lock:
                    self.hits += 1
                return result
            except (DataError, ProtocolError) as exc:
                log.warning("discarding corrupt cache entry %s: %s", path.name, exc)
                path.unlink(missing_ok=True)
        response = compute()
        result = decode(Fields(response, path))
        with self._lock:
            self.misses += 1
        body = json.dumps(
            {"request": request, "response": response}, sort_keys=True, ensure_ascii=False
        )
        atomic_write_text(path, body)
        return result

    def score_continuation(self, context: str, continuation: str) -> TokenScores:
        request = {
            "op": "score",
            "fingerprint": self.fingerprint,
            "context": context,
            "continuation": continuation,
        }

        def compute() -> dict:
            scores = self.inner.score_continuation(context, continuation)
            return {"tokens": list(scores.tokens), "logprobs": list(scores.logprobs)}

        return self._fetch(request, compute, _token_scores)

    def next_token_distribution(
        self, context: str, candidates: Sequence[str]
    ) -> list[float]:
        request = {
            "op": "next_token",
            "fingerprint": self.fingerprint,
            "context": context,
            "candidates": list(candidates),
        }
        return self._fetch(
            request,
            lambda: {"logprobs": self.inner.next_token_distribution(context, candidates)},
            lambda response: _candidate_logprobs(response, candidates),
        )

    def generate(self, prompt: str, stop: Sequence[str], max_tokens: int) -> str:
        request = {
            "op": "generate",
            "fingerprint": self.fingerprint,
            "prompt": prompt,
            "stop": list(stop),
            "max_tokens": int(max_tokens),
        }
        return self._fetch(
            request,
            lambda: {"text": self.inner.generate(prompt, stop, max_tokens)},
            lambda response: response.get("text", str),
        )


def make_backend(spec: str, cache_dir: str | Path | None = None) -> LanguageModel:
    """Build a backend from a ``mock:<fixture>`` or ``remote:<url>`` spec string."""
    scheme, _, rest = spec.partition(":")
    if scheme == "mock" and rest:
        model: LanguageModel = MockModel.from_file(rest)
    elif scheme == "remote" and rest:
        model = RemoteModel(rest)
    else:
        raise UsageError(
            f"bad backend spec {spec!r}; expected mock:<fixture> or remote:<url>"
        )
    if cache_dir is not None:
        return CachedModel(model, cache_dir)
    return model
