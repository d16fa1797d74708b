"""Wire-protocol stub of the remote scoring service, serving a mock fixture.

It runs as one single-threaded child process and answers ``POST /v1/score``,
``/v1/next_token`` and ``/v1/generate`` the way ``iclforge.lm.MockModel``
would for the same fixture. The probability law is implemented here a second
time, independently of the package, with the rules indexed by suffix, so the
benchmark's check that a remote run equals an in-process mock run compares
two implementations and the stub's own cost stays small and flat.

``GET /stats`` returns the counts since the previous ``GET /stats`` and
resets them: requests per op, distinct request bodies and the seconds the
server spent handling requests.

Run ``python3 perfbench/stub.py --fixture mock.json``; it prints the port it
listens on (127.0.0.1, chosen by the OS) as its first line of output, and
exits when terminated or when its parent process ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

DEFAULT_FLOOR = 1e-6
OPS = {"/v1/score": "score", "/v1/next_token": "next_token", "/v1/generate": "generate"}


class MockLaw:
    """The mock's next-token law: longest matching rule suffix, floor for the rest."""

    def __init__(self, payload: dict) -> None:
        self.vocab = [str(t) for t in payload["vocab"]]
        self.floor = float(payload.get("floor", DEFAULT_FLOOR))
        self.by_suffix: dict[str, list[tuple[str, float]]] = {}
        for rule in payload.get("rules", []):
            self.by_suffix.setdefault(str(rule["context_suffix"]), []).append(
                (str(rule["token"]), float(rule["weight"]))
            )
        self.lengths = sorted({len(s) for s in self.by_suffix}, reverse=True)

    def distribution(self, context: str) -> dict[str, float]:
        effective = context.rstrip(" ")
        group = None
        for length in self.lengths:
            if length == 0:
                group = self.by_suffix[""]
                break
            if length <= len(effective) and effective[-length:] in self.by_suffix:
                group = self.by_suffix[effective[-length:]]
                break
        if group is None:
            uniform = 1.0 / len(self.vocab)
            return {token: uniform for token in self.vocab}
        named: dict[str, float] = {}
        for token, weight in group:
            named[token] = named.get(token, 0.0) + weight
        total_weight = sum(named.values())
        unnamed = [t for t in self.vocab if t not in named]
        shared = 1.0 - len(unnamed) * self.floor
        dist = {t: self.floor for t in unnamed}
        for token, weight in named.items():
            dist[token] = weight / total_weight * shared
        return dist

    def score(self, context: str, continuation: str) -> dict:
        tokens, logprobs = [], []
        offset = 0
        for piece in continuation.split(" "):
            if piece:
                dist = self.distribution(context + continuation[:offset])
                tokens.append(piece)
                logprobs.append(math.log(dist.get(piece, self.floor)))
            offset += len(piece) + 1
        if not tokens:
            raise ValueError("continuation has no tokens")
        return {"tokens": tokens, "logprobs": logprobs}

    def next_token(self, context: str, candidates: list[str]) -> dict:
        dist = self.distribution(context)
        return {"logprobs": [math.log(dist.get(c, self.floor)) for c in candidates]}

    def generate(self, prompt: str, stop: list[str], max_tokens: int) -> dict:
        tokens: list[str] = []
        text = ""
        for _ in range(max_tokens):
            dist = self.distribution(prompt if not tokens else prompt + " " + text)
            best = max(dist.values())
            tokens.append(min(t for t, p in dist.items() if p == best))
            text = " ".join(tokens)
            cut = min((i for i in (text.find(s) for s in stop) if i != -1), default=-1)
            if cut != -1:
                return {"text": text[:cut]}
        return {"text": text}


class StubServer(HTTPServer):
    def __init__(self, law: MockLaw) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.law = law
        self.reset()

    def reset(self) -> None:
        self.requests = {op: 0 for op in OPS.values()}
        self.bodies: set[bytes] = set()
        self.busy_s = 0.0

    def finish_request(self, request, client_address) -> None:
        started = time.perf_counter()
        try:
            super().finish_request(request, client_address)
        finally:
            self.busy_s += time.perf_counter() - started


class Handler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, *args) -> None:
        pass

    def _reply(self, status: int, body: dict | None = None) -> None:
        data = json.dumps(body).encode("utf-8") if body is not None else b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404)
            return
        server = self.server
        stats = {
            "requests": dict(server.requests),
            "distinct_bodies": len(server.bodies),
            "busy_s": server.busy_s,
        }
        server.reset()
        self._reply(200, stats)

    def do_POST(self) -> None:
        op = OPS.get(self.path)
        if op is None:
            self._reply(404)
            return
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        law = self.server.law
        try:
            payload = json.loads(raw)
            if op == "score":
                body = law.score(payload["context"], payload["continuation"])
            elif op == "next_token":
                body = law.next_token(payload["context"], list(payload["candidates"]))
            else:
                body = law.generate(
                    payload["prompt"], list(payload["stop"]), int(payload["max_tokens"])
                )
        except (ValueError, KeyError, TypeError):
            self._reply(400)
            return
        self.server.requests[op] += 1
        self.server.bodies.add(hashlib.sha256(self.path.encode() + raw).digest())
        self._reply(200, body)


def main() -> None:
    parser = argparse.ArgumentParser(description="wire-protocol stub serving a mock fixture")
    parser.add_argument("--fixture", required=True)
    args = parser.parse_args()
    with open(args.fixture, encoding="utf-8") as fh:
        law = MockLaw(json.load(fh))
    server = StubServer(law)
    server.timeout = 0.5
    parent = os.getppid()
    print(server.server_address[1], flush=True)
    try:
        # stop on our own if the benchmark dies without stopping us
        while os.getppid() == parent:
            server.handle_request()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
