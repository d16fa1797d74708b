"""Independent brute-force oracles used to cross-check the implementation.

Everything here is written as straight-line code from the documented
behavior, sharing no code paths with the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def oracle_normalize(text: str) -> str:
    import re
    import string

    t = "".join(ch for ch in text.lower() if ch not in set(string.punctuation))
    t = re.sub(r"\b(a|an|the)\b", " ", t)
    return " ".join(t.split())


def oracle_set_scores(pred, gold, matcher):
    """Set-level precision/recall/F1 as exact rationals."""
    if not pred:
        return Fraction(0), Fraction(0), Fraction(0)
    if matcher == "exact":
        gold_norm = [oracle_normalize(g) for g in gold]
        pred_norm = [oracle_normalize(p) for p in pred]

        def correctness(answer_norm, reference_norm):
            return Fraction(1) if answer_norm in reference_norm else Fraction(0)

        p_hits = [correctness(p, gold_norm) for p in pred_norm]
        r_hits = [correctness(g, pred_norm) for g in gold_norm]
    else:
        def token_f1_frac(a, b):
            ta, tb = oracle_normalize(a).split(), oracle_normalize(b).split()
            if not ta and not tb:
                return Fraction(1)
            if not ta or not tb:
                return Fraction(0)
            overlap = 0
            pool = list(tb)
            for tok in ta:
                if tok in pool:
                    pool.remove(tok)
                    overlap += 1
            prec = Fraction(overlap, len(ta))
            rec = Fraction(overlap, len(tb))
            if prec + rec == 0:
                return Fraction(0)
            return 2 * prec * rec / (prec + rec)

        p_hits = [max(token_f1_frac(p, g) for g in gold) for p in pred]
        r_hits = [max(token_f1_frac(g, p) for p in pred) for g in gold]
    precision = sum(p_hits) / len(pred)
    recall = sum(r_hits) / len(gold)
    if precision + recall == 0:
        f1 = Fraction(0)
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def oracle_mock_distribution(vocab, rules, floor, context):
    """Next-token probabilities under the documented mock law."""
    ctx = context.rstrip(" ")
    matched = [r for r in rules if ctx.endswith(r[0])]
    if not matched:
        return {t: 1.0 / len(vocab) for t in vocab}
    best_len = max(len(r[0]) for r in matched)
    named = {}
    for suffix, token, weight in matched:
        if len(suffix) == best_len:
            named[token] = named.get(token, 0.0) + weight
    total = sum(named.values())
    unnamed = [t for t in vocab if t not in named]
    dist = {}
    for t in unnamed:
        dist[t] = floor
    for t, w in named.items():
        dist[t] = w / total * (1.0 - len(unnamed) * floor)
    return dist


def oracle_token_prob(vocab, rules, floor, context, token):
    dist = oracle_mock_distribution(vocab, rules, floor, context)
    return dist.get(token, floor)


def oracle_mock_generate(vocab, rules, floor, prompt, stop, max_tokens):
    """Greedy decode: the argmax of the full distribution, ties to the smallest token,
    cut before the first stop string once one appears."""
    tokens = []
    for _ in range(max_tokens):
        context = prompt + " " + " ".join(tokens) if tokens else prompt
        dist = oracle_mock_distribution(vocab, rules, floor, context)
        best = max(dist.values())
        tokens.append(min(t for t, p in dist.items() if p == best))
        text = " ".join(tokens)
        cuts = [text.find(s) for s in stop if s in text]
        if cuts:
            return text[: min(cuts)]
    return " ".join(tokens)


def oracle_tokenize(text):
    """Tokens of a continuation plus the context string seen before each."""
    out = []
    pos = 0
    for piece in text.split(" "):
        if piece:
            out.append((piece, text[:pos]))
        pos += len(piece) + 1
    return out


def oracle_answer_perplexity(vocab, rules, floor, prefix, answer):
    """Straight-line evaluation of the length-normalized perplexity product."""
    continuation = " " + answer
    product = 1.0
    tokens = oracle_tokenize(continuation)
    for token, before in tokens:
        product *= oracle_token_prob(vocab, rules, floor, prefix + before, token)
    return product ** (-1.0 / len(tokens))


def _oracle_greedy_decode(vocab, rules, floor, prefix, answers):
    """Step-by-step simulation of the constrained greedy decode: the order, and
    each contested step as (step, candidates, alive answer indices, answers
    done before it), and each answer's tokens."""
    seqs = [tuple(t for t, _ in oracle_tokenize(" " + a)) for a in answers]
    remaining = list(range(len(answers)))
    context = prefix
    order = []
    contested = []
    while remaining:
        alive = list(remaining)
        emitted = []
        while True:
            step = len(emitted)
            candidates = sorted({seqs[i][step] for i in alive})
            if len(candidates) > 1:
                contested.append((step, candidates, alive, len(order)))
            scored = [
                (oracle_token_prob(vocab, rules, floor, context, c), c)
                for c in candidates
            ]
            best_prob = max(p for p, _ in scored)
            choice = min(c for p, c in scored if p == best_prob)
            emitted.append(choice)
            context = context + " " + choice
            alive = [i for i in alive if seqs[i][step] == choice]
            finished = [i for i in alive if len(seqs[i]) == len(emitted)]
            if finished:
                winner = min(finished)
                order.append(winner)
                remaining.remove(winner)
                context = context + " |"
                break
    return order, contested, seqs


def oracle_greedy_order(vocab, rules, floor, prefix, answers):
    """Step-by-step simulation of the constrained greedy decode."""
    return _oracle_greedy_decode(vocab, rules, floor, prefix, answers)[0]


def oracle_per_answer_greedy_calls(vocab, rules, floor, prefix, answers):
    """Backend calls of greedy ordering that scores every distinct answer.

    A one-answer set costs none. Otherwise each distinct answer costs one
    score, and a contested step one next-token request, except a step before
    the first answer completes whose every candidate is the next token of an
    alive answer that its tokens, joined by single spaces, spell.
    """
    if len(answers) == 1:
        return 0
    _, contested, seqs = _oracle_greedy_decode(vocab, rules, floor, prefix, answers)
    calls = len(set(answers))
    for step, candidates, alive, done_before in contested:
        held = {seqs[i][step] for i in alive if " ".join(seqs[i]) == answers[i]}
        if done_before or held != set(candidates):
            calls += 1
    return calls


def python_dot(u, v):
    """Dot product summed left to right in Python floats."""
    return sum(x * y for x, y in zip(u, v))


def oracle_top_k(query_id, pool_ids, vectors, k, dot=python_dot):
    """Brute-force top-k ids by `dot`, ties to the smaller id."""
    sims = []
    for pid in pool_ids:
        sims.append((-dot(vectors[query_id], vectors[pid]), pid))
    sims.sort()
    return [pid for _, pid in sims[:k]]


def oracle_arrangement(query_id, ids, vectors, dot=python_dot):
    """Shots in non-decreasing `dot` with the query, ties to the smaller id."""
    return sorted(ids, key=lambda pid: (dot(vectors[query_id], vectors[pid]), pid))


def _oracle_backfill(query_id, pool_ids, vectors, k, chosen, dot):
    for pid in oracle_top_k(query_id, pool_ids, vectors, len(pool_ids), dot):
        if len(chosen) >= k:
            break
        if pid not in chosen:
            chosen.append(pid)
    return chosen


def oracle_topical(query_id, pool_ids, categories, vectors, k, dot=python_dot):
    """Top-k of the query's category, topped up from the whole pool's ranking."""
    same = [pid for pid in pool_ids if categories[pid] == categories[query_id]]
    chosen = oracle_top_k(query_id, same, vectors, k, dot)
    return _oracle_backfill(query_id, pool_ids, vectors, k, chosen, dot)


def oracle_diverse(query_id, pool_ids, labels, vectors, k, dot=python_dot):
    """Most similar member of each non-empty cluster, topped up from the ranking."""
    chosen = []
    for cluster in sorted(set(labels)):
        members = [pid for pid, label in zip(pool_ids, labels) if label == cluster]
        chosen += oracle_top_k(query_id, members, vectors, 1, dot)
    return _oracle_backfill(query_id, pool_ids, vectors, k, chosen, dot)


def oracle_sq_distances(points, centers):
    """(n, k) squared distances through the (n, k, d) broadcast."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def oracle_pair_counts(ranks):
    preserved = sum(1 for a, b in zip(ranks, ranks[1:]) if a < b)
    violated = sum(1 for a, b in zip(ranks, ranks[1:]) if a > b)
    return preserved, violated


def oracle_sse(points, assignment):
    clusters = {}
    for point, label in zip(points, assignment):
        clusters.setdefault(label, []).append(point)
    sse = 0.0
    for members in clusters.values():
        dim = len(members[0])
        centroid = [sum(m[d] for m in members) / len(members) for d in range(dim)]
        for m in members:
            sse += sum((m[d] - centroid[d]) ** 2 for d in range(dim))
    return sse


def oracle_best_two_partition(points):
    """Minimum-SSE split of the points into two non-empty groups."""
    n = len(points)
    best = None
    best_sse = math.inf
    for size in range(1, n // 2 + 1):
        for left in combinations(range(n), size):
            assignment = [0 if i in left else 1 for i in range(n)]
            sse = oracle_sse(points, assignment)
            if sse < best_sse:
                best_sse = sse
                best = assignment
    return best, best_sse
