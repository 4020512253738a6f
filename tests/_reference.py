"""Independent exact-counter reference implementations for tests.

These re-derive the documented behavior with plain dicts and exact
counts (no sketches), so detector outputs can be checked against an
implementation that shares no code with the package under test. The
pair oracle shares only ``cosine``, the definition of similarity, and
replaces the pair search with a check of every pair.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from reviewstream.clusters import cosine


def tick_of(timestamp: int, origin: int, period: int) -> int:
    delta = timestamp - origin
    if delta < 0:
        raise ValueError("timestamp before origin")
    return max(1, math.ceil(delta / period))


class ExactScorer:
    """Dict-backed scorer: exact per-app current-tick and historical
    counts, conditional merge at tick close, per-tick decay.

    The score expression mirrors the documented canonical form so that
    collision-free sketch runs must match bit for bit.
    """

    def __init__(self, origin: int, period: int, decay: float, filter_threshold: float):
        self.origin = origin
        self.period = period
        self.decay = decay
        self.filter_threshold = filter_threshold
        self.tick = 0
        self.hist: dict[str, float] = {}
        self.cur: dict[str, int] = {}
        self.last_score: dict[str, float] = {}

    def process(self, app_id: str, timestamp: int) -> float:
        t = tick_of(timestamp, self.origin, self.period)
        if t < self.tick:
            raise ValueError("time regression")
        if t > self.tick:
            self._advance(t)
        self.cur[app_id] = self.cur.get(app_id, 0) + 1
        a = float(self.cur[app_id])
        s = self.hist.get(app_id, 0.0) + a
        if t <= 1 or s <= 0.0:
            score = 0.0
        else:
            score = (a - s / t) ** 2 * (t * t) / (s * (t - 1))
        self.last_score[app_id] = score
        return score

    def historical_total(self, app_id: str) -> float:
        return self.hist.get(app_id, 0.0)

    def finish(self) -> None:
        if self.tick >= 1:
            self._close()

    def _advance(self, new_tick: int) -> None:
        if self.tick >= 1:
            self._close()
            for _ in range(new_tick - self.tick):
                for app_id in self.hist:
                    self.hist[app_id] *= self.decay
        self.tick = new_tick

    def _close(self) -> None:
        for app_id, count in self.cur.items():
            prior = self.hist.get(app_id, 0.0)
            if self.last_score.get(app_id, 0.0) > self.filter_threshold and self.tick >= 2:
                self.hist[app_id] = prior + prior / (self.tick - 1)
            else:
                self.hist[app_id] = prior + float(count)
        self.cur = {}
        self.last_score = {}


def brute_force_events(
    edges, origin: int, period: int, burst_factor: float, min_prior: float
) -> list[tuple[str, int, int, int]]:
    """Expected microcluster firings (app, prior_tick, prior, burst) from
    a raw per-(app, tick) recount of an edge sequence."""
    counts: Counter = Counter()
    ticks_by_app: dict[str, set[int]] = defaultdict(set)
    for edge in edges:
        t = tick_of(edge.timestamp, origin, period)
        counts[(edge.app_id, t)] += 1
        ticks_by_app[edge.app_id].add(t)
    fired = []
    for app_id, ticks in ticks_by_app.items():
        for burst_tick in sorted(ticks):
            if burst_tick < 2:
                continue
            burst = counts[(app_id, burst_tick)]
            prior = counts.get((app_id, burst_tick - 1), 0)
            denom = max(prior, min_prior)
            if denom > 0 and burst / denom > burst_factor:
                fired.append((app_id, burst_tick - 1, prior, burst))
    return sorted(fired)


def all_pairs_similarity(reviews, provider, tau: float):
    """Near-identical pairs by scoring every unordered pair of reviews
    with text: (pairs as (id_a, id_b, similarity) sorted by similarity
    desc then ids asc, flagged ids, reviews with text, reviews without)."""
    reviews = list(reviews)
    with_text = [r for r in reviews if r.text is not None]
    vectors = [provider.vector(r.review_id, r.text) for r in with_text]
    pairs = []
    flagged = set()
    for i in range(len(with_text)):
        for j in range(i + 1, len(with_text)):
            sim = cosine(vectors[i], vectors[j])
            if sim >= tau:
                id_a, id_b = sorted((with_text[i].review_id, with_text[j].review_id))
                pairs.append((id_a, id_b, sim))
                flagged.update((id_a, id_b))
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    return pairs, frozenset(flagged), len(with_text), len(reviews) - len(with_text)


def shared_reviewer_weights(edges) -> list[tuple[str, str, int]]:
    """App pairs (app_a, app_b, weight), app_a < app_b, sorted: each
    reviewer's set of reviewed apps adds one to each of its pairs."""
    apps_by_reviewer: dict[str, set[str]] = defaultdict(set)
    for edge in edges:
        apps_by_reviewer[edge.reviewer_id].add(edge.app_id)
    weights: Counter = Counter()
    for apps in apps_by_reviewer.values():
        ordered = sorted(apps)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                weights[(ordered[i], ordered[j])] += 1
    return [(a, b, count) for (a, b), count in sorted(weights.items())]
