"""Remote backend client against an in-process HTTP server that speaks the
wire protocol, backed by a mock model."""

from __future__ import annotations

import json
import logging
import re
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest

from iclforge.errors import ProtocolError, TransportError
from iclforge.lm import CachedModel, LanguageModel, MockModel, MockRule, RemoteModel
from iclforge.ordering import greedy_permutation

from rigs import FoldedDelimiterModel


def make_handler(model: LanguageModel, failures: dict):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # keep test output quiet
            pass

        def do_POST(self):
            failures["posts"] = failures.get("posts", 0) + 1
            failures.setdefault("paths", []).append(self.path)
            if failures.get("drop"):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.close_connection = True  # no reply at all
                return
            if "stall" in failures:
                failures["stall"].wait(10)  # the client gives up first
                return
            if failures.get("remaining", 0) > 0:
                failures["remaining"] -= 1
                self.send_response(503)
                self.end_headers()
                return
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            path = urlsplit(self.path).path  # a proxy is sent the absolute URL
            if path == "/v1/score":
                scores = model.score_continuation(payload["context"], payload["continuation"])
                body = {
                    "tokens": failures.get("score_tokens", list(scores.tokens)),
                    "logprobs": failures.get("score_logprobs", list(scores.logprobs)),
                }
            elif path == "/v1/next_token":
                logprobs = model.next_token_distribution(payload["context"], payload["candidates"])
                if failures.get("truncate_next_token"):
                    logprobs = logprobs[:-1]
                body = {"logprobs": failures.get("next_token_logprobs", logprobs)}
            elif path == "/v1/generate":
                body = failures.get("generate_body") or {
                    "text": model.generate(
                        payload["prompt"], payload["stop"], payload["max_tokens"]
                    )
                }
            else:
                self.send_response(404)
                self.end_headers()
                return
            data = failures.get("raw_body") or json.dumps(body).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Handler


@pytest.fixture
def backing_model():
    return MockModel(
        ["a", "b", "c", "\n"],
        (MockRule("", "a", 3.0), MockRule("a", "b", 5.0), MockRule("a b", "\n", 9.0)),
    )


@contextmanager
def serving(model: LanguageModel, failures: dict):
    """The base URL of a test server answering from `model`."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, failures))
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_port}"
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture
def server(backing_model):
    failures: dict = {}
    with serving(backing_model, failures) as url:
        yield url, failures


def test_remote_matches_mock(server, backing_model):
    url, _ = server
    remote = RemoteModel(url, backoff=0.01)
    assert remote.score_continuation("q", "a b") == backing_model.score_continuation("q", "a b")
    assert remote.next_token_distribution("q", ["a", "b"]) == (
        backing_model.next_token_distribution("q", ["a", "b"])
    )
    assert remote.generate("q", ["\n"], 10) == backing_model.generate("q", ["\n"], 10)


def test_transient_errors_are_retried(server):
    url, failures = server
    failures["remaining"] = 2
    remote = RemoteModel(url, retries=3, backoff=0.01)
    scores = remote.score_continuation("q", "a")
    assert scores.token_count == 1


def test_exhausted_retries_raise_transport_error(server):
    url, failures = server
    failures["remaining"] = 10
    remote = RemoteModel(url, retries=2, backoff=0.01)
    with pytest.raises(TransportError):
        remote.generate("q", [], 1)
    assert failures["remaining"] == 10 - 3  # initial attempt plus two retries


def test_unreachable_host_raises_transport_error():
    remote = RemoteModel("http://127.0.0.1:1", retries=1, backoff=0.01, timeout=0.5)
    with pytest.raises(TransportError):
        remote.score_continuation("q", "a")


def test_not_found_is_protocol_error_after_one_request(server):
    url, failures = server
    remote = RemoteModel(f"{url}/missing", retries=3, backoff=0.01)
    with pytest.raises(ProtocolError, match="404"):
        remote.score_continuation("q", "a")
    assert failures["posts"] == 1


def test_non_json_body_is_protocol_error_and_not_retried(server):
    url, failures = server
    failures["raw_body"] = b"<html>not json</html>"
    remote = RemoteModel(url, retries=3, backoff=0.01)
    message = f"{url}/v1/score: malformed JSON: Expecting value"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        remote.score_continuation("q", "a")
    assert failures["posts"] == 1


@pytest.mark.parametrize(
    "raw_body, message",
    [
        (b'{"text": "a\\ud800"}', r"lone surrogate escape \\ud800"),
        (b'{"text": "\\ude00\\ud83d"}', r"lone surrogate escape \\ude00"),
        (b'{"text": "a\xed\xa0\x80"}', "non-JSON body: 'utf-8' codec can't decode"),
    ],
    ids=["escape", "pair-reversed", "surrogate-bytes"],
)
def test_lone_surrogate_reply_is_protocol_error_and_never_cached(
    server, tmp_path, raw_body, message
):
    url, failures = server
    failures["raw_body"] = raw_body
    model = CachedModel(RemoteModel(url, retries=3, backoff=0.01), tmp_path / "cache")
    with pytest.raises(ProtocolError, match=message):
        model.generate("q", ["\n"], 10)
    assert failures["posts"] == 1
    assert list((tmp_path / "cache").iterdir()) == []


DEEP_NESTING = b"[" * 100_000 + b"]" * 100_000


def test_deeply_nested_reply_is_protocol_error_and_never_cached(server, tmp_path):
    url, failures = server
    failures["raw_body"] = DEEP_NESTING
    model = CachedModel(RemoteModel(url, retries=3, backoff=0.01), tmp_path / "cache")
    message = f"{url}/v1/generate: malformed JSON: maximum recursion depth exceeded"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        model.generate("q", ["\n"], 10)
    assert failures["posts"] == 1
    assert list((tmp_path / "cache").iterdir()) == []


def test_deeply_nested_reply_exits_3(server, tmp_path, fixtures_dir, capsys):
    from iclforge.cli import cli_dispatch

    url, failures = server
    failures["raw_body"] = DEEP_NESTING
    code = cli_dispatch([
        "order", "--train", str(fixtures_dir / "toy_train.jsonl"), "--id", "t1",
        "--strategy", "perplexity", "--embeddings", str(fixtures_dir / "toy_embeddings.jsonl"),
        "--backend", f"remote:{url}", "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 3
    assert "backend error: " in capsys.readouterr().err
    assert failures["posts"] == 1
    assert list((tmp_path / "cache").iterdir()) == []


def test_escaped_surrogate_pair_reply_is_text(server):
    url, failures = server
    failures["generate_body"] = {"text": "a \U0001F600"}  # sent as the pair \ud83d\ude00
    assert RemoteModel(url).generate("q", [], 1) == "a \U0001F600"


def test_connection_closed_without_reply_is_retried(server):
    url, failures = server
    failures["drop"] = True
    remote = RemoteModel(url, retries=2, backoff=0.01)
    with pytest.raises(TransportError, match="after 3 attempts"):
        remote.next_token_distribution("q", ["a", "b"])
    assert failures["posts"] == 3


def test_slow_reply_times_out_and_is_retried(server):
    url, failures = server
    failures["stall"] = threading.Event()
    remote = RemoteModel(url, retries=1, backoff=0.01, timeout=0.2)
    try:
        with pytest.raises(TransportError, match="after 2 attempts"):
            remote.generate("q", ["\n"], 10)
    finally:
        failures["stall"].set()
    assert failures["posts"] == 2


PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def clean_proxy_env(monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_http_proxy_from_the_environment_is_used(server, backing_model, clean_proxy_env):
    proxy_url, seen = server
    clean_proxy_env.setenv("HTTP_PROXY", proxy_url)
    # nothing listens on port 9: only the proxy can answer
    remote = RemoteModel("http://127.0.0.1:9", retries=0)
    assert remote.score_continuation("q", "a b") == backing_model.score_continuation("q", "a b")
    assert seen["paths"] == ["http://127.0.0.1:9/v1/score"]


def test_no_proxy_bypasses_the_proxy(server, backing_model, clean_proxy_env):
    url, seen = server
    clean_proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    clean_proxy_env.setenv("NO_PROXY", "127.0.0.1")
    remote = RemoteModel(url, retries=0)
    assert remote.score_continuation("q", "a b") == backing_model.score_continuation("q", "a b")
    assert seen["paths"] == ["/v1/score"]


def test_https_through_a_proxy_stays_https_on_every_attempt(server, clean_proxy_env):
    proxy_url, seen = server
    clean_proxy_env.setenv("HTTPS_PROXY", proxy_url)
    remote = RemoteModel("https://127.0.0.1:9/api", retries=2, backoff=0.01)
    sent = []
    open_request = remote._opener.open

    def spy(request, *args, **kwargs):
        try:
            return open_request(request, *args, **kwargs)
        finally:  # as the proxy handler left the request
            sent.append((request.type, request.selector))

    remote._opener.open = spy
    # the test server refuses CONNECT, so every attempt fails and is retried
    with pytest.raises(TransportError, match="after 3 attempts"):
        remote.score_continuation("q", "a")
    assert sent == [("https", "/api/v1/score")] * 3
    assert "posts" not in seen  # no body was sent to the proxy in the clear


def test_length_mismatch_is_protocol_error_and_not_retried(server):
    url, failures = server
    failures["truncate_next_token"] = True
    remote = RemoteModel(url, retries=3, backoff=0.01)
    with pytest.raises(ProtocolError):
        remote.next_token_distribution("q", ["a", "b"])


BAD_LOGPROBS = [float("nan"), float("inf"), float("-inf"), 0.5]


@pytest.mark.parametrize("bad", BAD_LOGPROBS)
def test_bad_next_token_logprob_is_protocol_error(server, bad):
    url, failures = server
    failures["next_token_logprobs"] = [-0.1, bad]
    remote = RemoteModel(url, retries=3, backoff=0.01)
    with pytest.raises(ProtocolError):
        remote.next_token_distribution("q", ["a", "b"])


@pytest.mark.parametrize("bad", BAD_LOGPROBS)
def test_bad_score_logprob_is_protocol_error(server, bad):
    url, failures = server
    failures["score_logprobs"] = [bad]
    remote = RemoteModel(url, retries=3, backoff=0.01)
    with pytest.raises(ProtocolError):
        remote.score_continuation("q", "a")


@pytest.mark.parametrize("tokens", [[5], "a", None])
def test_non_string_token_is_protocol_error(server, tokens):
    url, failures = server
    failures["score_tokens"] = tokens
    remote = RemoteModel(url, retries=3, backoff=0.01)
    with pytest.raises(ProtocolError, match="tokens"):
        remote.score_continuation("q", "a")


@pytest.mark.parametrize("body", [{"text": None}, {"text": 7}, {"text": ["a"]}, {"other": "a"}])
def test_non_string_generation_is_protocol_error(server, body):
    url, failures = server
    failures["generate_body"] = body
    remote = RemoteModel(url, retries=3, backoff=0.01)
    with pytest.raises(ProtocolError):
        remote.generate("q", ["\n"], 10)


def test_fingerprint_is_url_based(server):
    url, _ = server
    assert RemoteModel(url).fingerprint == f"remote:{url}"


GREEDY_SETS = (["a b", "c", "b"], ["b a", "b", "c a b"], ["a", "a b", "c", "a"])


def test_greedy_scores_each_answer_set_once(server, backing_model):
    url, seen = server
    remote = RemoteModel(url, retries=0)
    for answers in GREEDY_SETS:
        assert greedy_permutation(answers, "q", remote) == (
            greedy_permutation(answers, "q", backing_model)
        ), answers
    assert seen["paths"].count("/v1/score") == len(GREEDY_SETS)


def test_greedy_answer_line_that_does_not_split_falls_back_to_each_answer(backing_model):
    seen: dict = {}
    with serving(FoldedDelimiterModel(backing_model), seen) as url:
        remote = RemoteModel(url, retries=0)
        for answers in GREEDY_SETS:
            assert greedy_permutation(answers, "q", remote) == (
                greedy_permutation(answers, "q", backing_model)
            ), answers
    # the first set's answer line, then one score per distinct answer: the
    # first reply that did not split is remembered for this backend
    expected = 1 + sum(len(set(answers)) for answers in GREEDY_SETS)
    assert seen["paths"].count("/v1/score") == expected


def test_greedy_over_a_cache_without_answer_lines_needs_no_backend(
    tmp_path, backing_model, caplog
):
    # a cache like one written before greedy scored answer lines: the line
    # reply does not split here, so each answer's requests are cached too
    seen: dict = {}
    with serving(FoldedDelimiterModel(backing_model), seen) as url:
        writer = CachedModel(RemoteModel(url, retries=0), tmp_path / "cache")
        for answers in GREEDY_SETS:
            greedy_permutation(answers, "q", writer)
    lines = [
        entry
        for entry in (tmp_path / "cache").glob("*.json")
        if " | " in json.loads(entry.read_text(encoding="utf-8"))["request"].get("continuation", "")
    ]
    assert len(lines) == 1
    lines[0].unlink()
    # the server is stopped: the line request misses and cannot be sent
    cached = CachedModel(RemoteModel(url, retries=0), tmp_path / "cache")
    with caplog.at_level(logging.WARNING, logger="iclforge.ordering"):
        for answers in GREEDY_SETS:
            assert greedy_permutation(answers, "q", cached) == (
                greedy_permutation(answers, "q", backing_model)
            ), answers
    # every request the writer made but the line is served from the cache
    assert (cached.hits, cached.misses) == (writer.hits + writer.misses - 1, 0)
    assert caplog.text.count("answer line not scored") == 1
    # with nothing cached, the first answer's score fails as well
    empty = CachedModel(RemoteModel(url, retries=0), tmp_path / "empty")
    with pytest.raises(TransportError):
        greedy_permutation(GREEDY_SETS[0], "q", empty)


def test_full_harness_over_remote_backend(tmp_path, fixtures_dir):
    """The eval pipeline produces the same records via HTTP as via the mock."""
    from iclforge.harness import RECORDS_FILE, RunConfig, run_eval

    toy_model = MockModel.from_file(fixtures_dir / "mock_toy.json")
    with serving(toy_model, {}) as url:
        common = dict(
            train_path=str(fixtures_dir / "toy_train.jsonl"),
            eval_path=str(fixtures_dir / "toy_eval.jsonl"),
            embeddings_path=str(fixtures_dir / "toy_embeddings.jsonl"),
            ordering="greedy",
            seed=0,
            jobs=4,
        )
        remote_report = run_eval(
            RunConfig(
                backend=f"remote:{url}",
                out_dir=str(tmp_path / "remote"),
                cache_dir=str(tmp_path / "cache"),
                **common,
            )
        )
        local_report = run_eval(
            RunConfig(
                backend=f"mock:{fixtures_dir / 'mock_toy.json'}",
                out_dir=str(tmp_path / "local"),
                **common,
            )
        )
    assert (tmp_path / "remote" / RECORDS_FILE).read_bytes() == (
        tmp_path / "local" / RECORDS_FILE
    ).read_bytes()
    assert remote_report.aggregates == local_report.aggregates
