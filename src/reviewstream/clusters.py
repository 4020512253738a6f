"""Suspicious review clusters and near-identical pair analysis.

A cluster is the set of scored edges for one (app, sub-stream, burst
tick) triple, materialized from a microcluster event. Clusters are
ranked by mean anomaly score; within a cluster every pair of review
texts whose cosine similarity reaches tau is found, to quantify
copy-paste behavior. Members are grouped by the stored form of their
vectors, a filter over one vector per group proposes candidate pairs,
and each candidate is checked with ``cosine`` itself, so the pairs and their
similarities are exactly those of scoring every pair.

Embeddings are pluggable. The default is a deterministic lexical model:
lowercase, strip punctuation, collapse whitespace, then an L2-normalized
term-frequency vector over word unigrams and bigrams. Precomputed
vectors (from any external sentence encoder) can be supplied instead via
a JSONL sidecar keyed by review_id.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import sqrt
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .detector import _LABEL_CODE, _LABELS, MicroclusterEvent, ScoredStream
from .partition import SubstreamLabel
from .stats import count_distinct, pair_blocks, range_blocks

_WORD_RE = re.compile(r"\w+", re.UNICODE)
MAX_PAIRS_LISTED = 10  # pairs listed per cluster in the report


class InconsistentRunError(ValueError):
    """Scores and events do not come from the same detector run."""


class MissingEmbeddingError(ValueError):
    """The external embedding sidecar lacks a required review_id."""


class EmbeddingFileError(ValueError):
    """An embedding sidecar line is malformed; the message names file:line."""


@dataclass(frozen=True)
class SuspiciousCluster:
    app_id: str
    substream: SubstreamLabel
    tick: int  # burst tick (the period after the prior baseline)
    review_ids: tuple[str, ...]  # the members, in stream order
    texts: tuple[str | None, ...]  # their texts, in the same order
    mean_score: float

    @property
    def size(self) -> int:
        return len(self.review_ids)


def normalize_text(text: str) -> list[str]:
    """Lowercase, drop punctuation, collapse whitespace; return tokens."""
    return _WORD_RE.findall(text.lower())


def lexical_vector(text: str) -> dict:
    """L2-normalized term-frequency vector over unigrams and bigrams.

    Empty or punctuation-only text yields an empty vector; any
    similarity against it is defined as 0.
    """
    tokens = normalize_text(text)
    if not tokens:
        return {}
    counts: Counter = Counter(tokens)
    counts.update(zip(tokens, tokens[1:]))
    norm = sqrt(sum(c * c for c in counts.values()))
    return {term: c / norm for term, c in counts.items()}


def cosine(u, v) -> float:
    """Cosine similarity of two vectors from the same provider.

    Identical vectors compare as exactly 1.0 so that an exact-duplicate
    threshold (tau = 1.0) is meaningful despite float rounding; empty or
    zero vectors yield 0.
    """
    if isinstance(u, dict) or isinstance(v, dict):
        if not u or not v:
            return 0.0
        if u == v:
            return 1.0
        if len(u) > len(v):
            u, v = v, u
        dot = sum(w * v[term] for term, w in u.items() if term in v)
        return min(1.0, max(-1.0, dot))
    if not np.any(u) or not np.any(v):
        return 0.0
    if np.array_equal(u, v):
        return 1.0
    return min(1.0, max(-1.0, float(np.dot(u, v))))


class LexicalEmbedder:
    """Deterministic built-in text embedding (no model files needed)."""

    name = "lexical"
    default_tau = 0.95

    def vectors(self, review_ids: Sequence[str], texts: Sequence[str]) -> list[dict]:
        """One vector per text; equal texts share one."""
        by_text = {text: lexical_vector(text) for text in set(texts)}
        return [by_text[text] for text in texts]


class FileEmbedder:
    """Precomputed vectors loaded from a JSONL sidecar.

    Each line is {"review_id": ..., "vector": [...]} and no other key; the
    dimension must be constant across the file. Vectors are L2-normalized
    at load.
    """

    name = "file"
    default_tau = 1.0

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        self._vectors = dict(vectors)

    @classmethod
    def load(cls, path: str | Path) -> "FileEmbedder":
        """Read a sidecar; any malformed line raises EmbeddingFileError."""
        vectors: dict[str, np.ndarray] = {}
        dim: int | None = None
        with open(path, "rb") as fh:  # json.loads reports undecodable bytes per line
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                    review_id, values = obj["review_id"], obj["vector"]
                    vec = np.asarray(values, dtype=np.float64)
                except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                    raise EmbeddingFileError(
                        f"{where}: not a {{review_id, vector}} object: {exc!r}"
                    ) from None
                unknown = sorted(obj.keys() - {"review_id", "vector"})
                if unknown:
                    raise EmbeddingFileError(f"{where}: unknown key {unknown[0]!r}")
                if not isinstance(review_id, str):
                    raise EmbeddingFileError(f"{where}: review_id must be a string")
                if review_id in vectors:
                    raise EmbeddingFileError(f"{where}: review_id {review_id!r} given twice")
                if vec.ndim != 1:
                    raise EmbeddingFileError(f"{where}: vector must be 1-D")
                if not all(type(v) in (int, float) for v in values):  # bool, str: not numbers
                    raise EmbeddingFileError(f"{where}: vector must hold numbers")
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise EmbeddingFileError(f"{where}: dimension {vec.shape[0]} != {dim}")
                if not np.isfinite(vec).all():
                    raise EmbeddingFileError(f"{where}: vector has non-finite values")
                norm = float(np.linalg.norm(vec))
                if norm > 0:
                    vec = vec / norm
                vectors[review_id] = vec
        return cls(vectors)

    def vectors(self, review_ids: Sequence[str], texts: Sequence[str]) -> list[np.ndarray]:
        """Each id's vector; the first id the sidecar lacks raises MissingEmbeddingError."""
        try:
            return [self._vectors[review_id] for review_id in review_ids]
        except KeyError as exc:
            raise MissingEmbeddingError(f"no embedding for review_id {exc.args[0]!r}") from None


def collect_clusters(
    events: Sequence[MicroclusterEvent], scored: ScoredStream
) -> list[SuspiciousCluster]:
    """One cluster per event: all same-sub-stream scored edges of the
    event's app in its burst tick, in stream order."""
    table = scored.table
    app_code = {app_id: code for code, app_id in enumerate(table.app_ids)}
    ticks, tick_rank = np.unique(scored.tick, return_inverse=True)
    rank_of = dict(zip(ticks.tolist(), range(len(ticks))))
    keys = (table.app[scored.row] * len(_LABELS) + scored.substream) * (len(ticks) + 1) + tick_rank
    order = np.argsort(keys, kind="stable")
    wanted = np.array([(app_code.get(e.app_id, -1) * len(_LABELS) + _LABEL_CODE[e.substream])
                       * (len(ticks) + 1) + rank_of.get(e.burst_tick, len(ticks))
                       for e in events], dtype=np.int64)
    lo, hi = np.searchsorted(keys[order], [wanted, wanted + 1])
    sizes = hi - lo
    if not sizes.all():
        event = events[int(sizes.argmin())]  # the first with no scored edges
        raise InconsistentRunError(f"event for app {event.app_id!r} at tick {event.burst_tick} "
                                   f"({event.substream.value}) has no scored edges")
    by_key = np.argsort(wanted, kind="stable")
    repeats = by_key[1:][np.diff(wanted[by_key]) == 0]
    if len(repeats):
        event = events[int(repeats.min())]  # the first to repeat an earlier one
        raise InconsistentRunError(f"event for app {event.app_id!r} at tick {event.burst_tick} "
                                   f"({event.substream.value}) is listed twice")
    # The members of every cluster gathered at once, laid end to end, then
    # dealt out in order: cluster c's f-th member is order[lo[c] + f].
    start = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    member = order[start + np.arange(len(start))]
    rows = scored.row[member].tolist()
    review_ids = iter(map(table.review_id.__getitem__, rows))
    texts = iter(map(table.text.__getitem__, rows))
    scores = iter(scored.score[member].tolist())
    return [SuspiciousCluster(
        app_id=event.app_id,
        substream=event.substream,
        tick=event.burst_tick,
        review_ids=tuple(islice(review_ids, size)),
        texts=tuple(islice(texts, size)),
        mean_score=sum(islice(scores, size)) / size,  # left to right; np.sum is pairwise
    ) for event, size in zip(events, sizes.tolist())]


def rank_clusters(
    clusters: Iterable[SuspiciousCluster], k: int
) -> list[SuspiciousCluster]:
    """Top k by mean score; ties by size desc, app_id asc, tick asc."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ordered = sorted(
        clusters,
        key=lambda c: (-c.mean_score, -c.size, c.app_id, c.tick, c.substream.value),
    )
    return ordered[:k]


class PairAnalysis:
    """The pairs with similarity >= tau among a set of reviews, given as
    equal-length columns of ids and texts, such as a cluster's
    ``review_ids`` and ``texts``. They are held as groups of members with
    equal vectors (every pair inside a group scores exactly 1.0) plus the
    verified pairs across groups. Reviews without text are left out of
    pairing but counted."""

    def __init__(self, review_ids: Sequence[str], texts: Sequence[str | None], provider,
                 tau: float):
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        with_text = [(r, t) for r, t in zip(review_ids, texts, strict=True) if t is not None]
        self._ids = [r for r, _ in with_text]
        vectors = provider.vectors(self._ids, [t for _, t in with_text])
        self.evaluated_count = len(with_text)
        self.textless_count = len(texts) - len(with_text)
        self._groups = _equal_vector_groups(vectors)
        self._scored: list[tuple[float, int, int]] = []  # (similarity, i, j), i < j
        # cosine takes each pair in member order: equal dicts may iterate in
        # different orders, and its float sum follows the order. Group members
        # are stored alike, so one call serves each group pair and order.
        for g, h in _candidate_groups([vectors[m[0]] for m in self._groups], tau):
            sims: dict = {}
            for x in self._groups[g]:
                for y in self._groups[h]:
                    if (x < y) not in sims:
                        sims[x < y] = cosine(vectors[min(x, y)], vectors[max(x, y)])
                    if sims[x < y] >= tau:
                        self._scored.append((sims[x < y], min(x, y), max(x, y)))

    @property
    def pair_count(self) -> int:
        return sum(len(m) * (len(m) - 1) // 2 for m in self._groups) + len(self._scored)

    @cached_property
    def flagged_review_ids(self) -> frozenset[str]:
        """The reviews in at least one pair."""
        members = {i for m in self._groups if len(m) > 1 for i in m}
        members.update(i for _, a, b in self._scored for i in (a, b))
        return frozenset(self._ids[i] for i in members)

    def ordered(self) -> Iterator[dict]:
        """Each pair as ``{"a", "b", "similarity"}``, a < b; by similarity desc, then ids."""
        ids = self._ids
        within = [  # combinations of sorted ids come out in id order
            ((-1.0, a, b) for a, b in combinations(sorted(ids[i] for i in m), 2))
            for m in self._groups if len(m) > 1
        ]
        across = sorted((-sim, *sorted((ids[i], ids[j]))) for sim, i, j in self._scored)
        for neg_sim, a, b in heapq.merge(across, *within):
            yield {"a": a, "b": b, "similarity": -neg_sim}


def _equal_vector_groups(vectors: Sequence) -> list[list[int]]:
    """Indices of the non-empty, non-zero vectors grouped by stored form, in
    order of first appearance: dicts by keys and values in order, arrays by
    the bytes of ``v + 0.0`` (-0.0 made 0.0). Members of a group are equal
    and iterate alike. Empty and zero vectors, and arrays holding a NaN, are
    left out: cosine scores them 0 or -1, below any tau."""
    groups: dict = {}
    for i, v in enumerate(vectors):
        if isinstance(v, dict):
            if v:
                groups.setdefault((tuple(v), tuple(v.values())), []).append(i)
        elif np.any(v) and not np.isnan(v).any():
            groups.setdefault((v + 0.0).tobytes(), []).append(i)
    return list(groups.values())


_GRAM_BLOCK_ENTRIES = 1 << 22  # 32 MB of float64 Gram entries per block
# Prefix pairs or join entries handled at a time, with about 80 bytes of
# working arrays each.
_PREFIX_BLOCK_ENTRIES = 1 << 16


def _candidate_groups(reps: Sequence, tau: float) -> Iterator[tuple[int, int]]:
    """Group pairs (g, h), g < h, in that order, whose representatives'
    dot product comes within a rounding margin of tau; a superset of the
    pairs whose cosine reaches tau.

    A float sum of d products, in any order, is within gamma_d *
    sum|x_k y_k| <= gamma_d * |x| |y| of the exact dot product (gamma_d =
    d u / (1 - d u), u = 2**-53; Cauchy-Schwarz for the second step).
    cosine and the products below each sum at most d products, so they
    differ by at most 2 gamma_d max|x|^2, which 4 d u max|x|^2 covers.
    Equal dicts in two groups (d >= 2, as key orders differ) score 1.0 by
    ``u == v``; |x|^2 is within 4 u of 1 (N and each c / N rounded once), so
    their float dot is within (d + 4) u of 1, inside the margin. A NaN margin
    or Gram entry makes the pair a candidate, so non-finite vectors fall back
    to the exact check. Lexical vectors go through ``_prefix_candidates``;
    dense ones through a blocked Gram product.
    """
    if len(reps) < 2:
        return
    if isinstance(reps[0], dict):
        yield from _prefix_candidates(reps, tau)
        return
    matrix = np.stack(reps)
    d = matrix.shape[1]
    norm2 = np.einsum("ij,ij->i", matrix, matrix)
    threshold = tau - 4 * d * 2.0**-53 * float(np.max(norm2))
    block = max(1, _GRAM_BLOCK_ENTRIES // len(reps))
    for start in range(0, len(reps), block):
        gram = matrix[start:start + block] @ matrix.T
        rows, cols = np.nonzero(~(gram < threshold))
        rows += start
        keep = cols > rows
        yield from zip(rows[keep].tolist(), cols[keep].tolist())


def _prefix_candidates(reps: Sequence[dict], tau: float) -> Iterator[tuple[int, int]]:
    """``_candidate_groups`` for lexical vectors by l2 prefix filtering
    (Bayardo, Ma & Srikant, WWW 2007; Anastasiu & Karypis, "L2AP", ICDE 2014).

    Terms are ranked rarest first (by the number of vectors holding them,
    ties by term code), and each vector's entries read in rank order. S is
    the float sum of the squared weights of an entry and those after it,
    added one at a time from the vector's end, and M the largest S. A
    vector's prefix is the shortest run of its entries whose remaining
    suffix has sqrt(S M) below limit = tau (1 - 4 (d + 1) u).

    No pair whose cosine reaches tau is lost. The weights are positive, so
    a float sum of common-term products, cosine's included, is at most
    (1 + gamma_d) times the exact dot product, and the exact squared norm
    of a suffix at most S / (1 - gamma_d). (1) Take x and y with no common
    prefix term, x's prefix ending no later in rank order than y's: a
    common term in y's prefix or after it is in x's suffix s, so x.y <=
    |s| |y|. (2) If they share a prefix term, their first common term t is
    in both prefixes, and x.y <= x_t y_t + |x after t| |y after t|. Each
    bound is evaluated in floats, from S, M and the weights, and drops a
    pair only when below limit; (1 + gamma_d) / (1 - gamma_d) and the
    roundings of the bound and of limit stay within its 4 (d + 1) u, so a
    dropped pair's cosine is below tau. Lexical weights are at least
    2**-53, so a tau below the normal float range drops nothing. Equal
    dicts share their entries; at the first, sqrt(S M) >= 1 - (d + 6) u
    reaches limit, and (2) gives S, as sqrt(fl(r r)) = r.

    The vector pairs that share a prefix term are expanded in blocks by
    ``pair_blocks`` and checked with (2); a join of the survivors' terms
    gives their dot products, and those at or above the margin of
    ``_candidate_groups`` are kept. The cost follows the pairs that share
    a prefix term, which approach C(n, 2) as tau falls; memory is one
    block plus the kept pairs.
    """
    n = len(reps)
    vocab: dict = {}
    term = np.fromiter((vocab.setdefault(t, len(vocab)) for v in reps for t in v), np.int64)
    weight = np.fromiter((w for v in reps for w in v.values()), np.float64, len(term))
    length = np.fromiter(map(len, reps), np.int64, n)
    n_terms, d = len(vocab), int(length.max())
    rank = np.empty(n_terms, dtype=np.int64)
    rank[np.argsort(np.bincount(term, minlength=n_terms), kind="stable")] = np.arange(n_terms)
    # Entries by (vector, term rank); vector r holds begins[r] .. ends[r] - 1.
    key = np.repeat(np.arange(n) * n_terms, length) + rank[term]
    order = np.argsort(key)
    key, weight = key[order], weight[order]
    row, term_rank = np.divmod(key, n_terms)
    ends = np.cumsum(length)
    begins = ends - length

    # S of every entry: step j adds the j-th entry from the end of each
    # vector longer than j. rest is the S of the entry after, 0 at the end.
    suffix = np.empty(len(key))
    longest = np.argsort(-length, kind="stable")
    alive = np.searchsorted(-length[longest], -np.arange(d), side="left")
    last, total = ends[longest] - 1, np.zeros(n)
    for j, k in enumerate(alive.tolist()):
        at = last[:k] - j
        total[:k] += weight[at] * weight[at]
        suffix[at] = total[:k]
    rest = np.append(suffix[1:], 0.0)
    rest[ends - 1] = 0.0
    norm2_max = float(suffix.max())
    threshold = tau - 4 * d * 2.0**-53 * norm2_max
    limit = tau * (1 - 4 * (d + 1) * 2.0**-53)

    # Prefix entries grouped by term rank, vectors ascending inside.
    prefix = np.flatnonzero(~(np.sqrt(suffix * norm2_max) < limit))
    prefix = prefix[np.argsort(term_rank[prefix] * n + row[prefix])]

    def verified(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The distinct pairs g * n + h, g < h, of the entries ``a``, ``b``
        of one common prefix term each that pass (2) and whose dot product,
        a join of h's terms into g's, reaches ``threshold``."""
        keep = ~(weight[a] * weight[b] + np.sqrt(rest[a] * rest[b]) < limit)
        pairs = np.sort(row[a[keep]] * n + row[b[keep]])
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        g, h = np.divmod(pairs, n)
        g *= n_terms
        dots = np.zeros(len(pairs))
        for items, at in range_blocks(begins[h], length[h], _PREFIX_BLOCK_ENTRIES):
            wanted = g[items] + term_rank[at]
            found = np.searchsorted(key, wanted)  # g < h: in range, and close for close g
            products = np.where(key[found] == wanted, weight[at] * weight[found], 0.0)
            dots[items[0]:items[-1] + 1] += np.bincount(items - items[0], weights=products)
        return pairs[dots >= threshold]

    pairs, _ = count_distinct(verified(prefix[left], prefix[right]) for left, right
                              in pair_blocks(term_rank[prefix], _PREFIX_BLOCK_ENTRIES))
    g, h = np.divmod(pairs, n)
    yield from zip(g.tolist(), h.tolist())


def build_cluster_report(
    ranked: Sequence[SuspiciousCluster],
    provider,
    tau: float,
) -> list[dict]:
    """JSON-ready report entries, one per cluster, in rank order."""
    report = []
    for cluster in ranked:
        found = PairAnalysis(cluster.review_ids, cluster.texts, provider, tau)
        report.append({
            "app_id": cluster.app_id,
            "substream": cluster.substream.value,
            "tick": cluster.tick,
            "size": cluster.size,
            "mean_score": cluster.mean_score,
            "textless_count": found.textless_count,
            "flagged_count": len(found.flagged_review_ids),
            "pair_count": found.pair_count,
            "top_pairs": list(islice(found.ordered(), MAX_PAIRS_LISTED)),
            "provider": provider.name,
            "tau": tau,
        })
    return report
