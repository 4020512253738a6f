"""Suspicious review clusters and near-identical pair analysis.

A cluster is the set of scored edges for one (app, sub-stream, burst
tick) triple, materialized from a microcluster event. Clusters are
ranked by mean anomaly score; within a cluster every pair of review
texts whose cosine similarity reaches tau is found, to quantify
copy-paste behavior. Members with equal vectors are grouped, a Gram
product over one vector per group proposes candidate pairs, and each
candidate is checked with ``cosine`` itself, so the pairs and their
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

from .detector import MicroclusterEvent, ScoredStream
from .partition import SubstreamLabel

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

    Each line is {"review_id": ..., "vector": [...]}; the dimension must
    be constant across the file. Vectors are L2-normalized at load.
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
                if not isinstance(review_id, str):
                    raise EmbeddingFileError(f"{where}: review_id must be a string")
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
    labels = list(SubstreamLabel)
    table = scored.table
    app_code = {app_id: code for code, app_id in enumerate(table.app_ids)}
    ticks, tick_rank = np.unique(scored.tick, return_inverse=True)
    rank_of = dict(zip(ticks.tolist(), range(len(ticks))))
    keys = (table.app[scored.row] * len(labels) + scored.substream) * (len(ticks) + 1) + tick_rank
    order = np.argsort(keys, kind="stable")
    wanted = np.array([(app_code.get(e.app_id, -1) * len(labels) + labels.index(e.substream))
                       * (len(ticks) + 1) + rank_of.get(e.burst_tick, len(ticks))
                       for e in events], dtype=np.int64)
    lo, hi = np.searchsorted(keys[order], [wanted, wanted + 1])
    sizes = hi - lo
    if not sizes.all():
        event = events[int(sizes.argmin())]  # the first with no scored edges
        raise InconsistentRunError(f"event for app {event.app_id!r} at tick {event.burst_tick} "
                                   f"({event.substream.value}) has no scored edges")
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
        # Each pair is scored by cosine itself, with its arguments in member
        # order: equal dicts may iterate in different orders, and the float
        # sum, with it the threshold decision, follows the order. Between two
        # groups the result depends only on which member comes first and on
        # the key order of each dict (equal arrays give equal dot products),
        # so one call serves every pair that agrees on those.
        key_orders: dict = {}
        order = [key_orders.setdefault(tuple(v), len(key_orders)) if isinstance(v, dict) else 0
                 for v in vectors]
        for g, h in _candidate_groups([vectors[m[0]] for m in self._groups], tau):
            sims: dict = {}
            for x in self._groups[g]:
                for y in self._groups[h]:
                    i, j = (x, y) if x < y else (y, x)
                    key = (x < y, order[x], order[y])
                    if key not in sims:
                        sims[key] = cosine(vectors[i], vectors[j])
                    if sims[key] >= tau:
                        self._scored.append((sims[key], i, j))

    @property
    def pair_count(self) -> int:
        return sum(len(m) * (len(m) - 1) // 2 for m in self._groups) + len(self._scored)

    @cached_property
    def flagged_review_ids(self) -> frozenset[str]:
        """The reviews in at least one pair."""
        members = {i for m in self._groups if len(m) > 1 for i in m}
        members.update(i for _, a, b in self._scored for i in (a, b))
        return frozenset(self._ids[i] for i in members)

    @cached_property
    def pairs(self) -> tuple[dict, ...]:
        return tuple(self.ordered())

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
    """Indices of the non-empty, non-zero vectors grouped by equality, in
    order of first appearance. The keys agree with cosine's ``u == v``
    test: dict equality for lexical vectors, ``np.array_equal`` for
    arrays (the floats of ``tolist`` compare -0.0 equal to 0.0 and NaN
    unequal to itself, as array_equal does). Empty and zero vectors are
    left out: cosine scores them 0, below any tau."""
    groups: dict = {}
    for i, v in enumerate(vectors):
        if isinstance(v, dict):
            if v:
                groups.setdefault(frozenset(v.items()), []).append(i)
        elif np.any(v):
            groups.setdefault(tuple(v.tolist()), []).append(i)
    return list(groups.values())


_GRAM_BLOCK_ENTRIES = 1 << 22  # 32 MB of float64 Gram entries per block


def _candidate_groups(reps: Sequence, tau: float) -> Iterator[tuple[int, int]]:
    """Group pairs (g, h), g < h, whose representatives' dot product
    comes within a rounding margin of tau; a superset of the pairs whose
    cosine reaches tau.

    A float sum of d products is within gamma_d * sum|x_k y_k| <=
    gamma_d * |x| |y| of the exact dot product (gamma_d = d u / (1 - d u),
    u = 2**-53; Cauchy-Schwarz for the second step). cosine and the Gram
    product below each sum at most d products, so they differ by at most
    2 gamma_d max|x|^2, which 4 d u max|x|^2 covers. A NaN margin or Gram
    entry makes the pair a candidate, so non-finite vectors fall back to
    the exact check.
    """
    if len(reps) < 2:
        return
    if isinstance(reps[0], dict):
        from scipy.sparse import csr_matrix

        vocab: dict = {}
        indices: list[int] = []
        data: list[float] = []
        indptr = [0]
        for v in reps:
            for term, w in v.items():
                indices.append(vocab.setdefault(term, len(vocab)))
                data.append(w)
            indptr.append(len(indices))
        matrix = csr_matrix((data, indices, indptr), shape=(len(reps), len(vocab)))
        d = max(len(v) for v in reps)
        norm2 = matrix.multiply(matrix).sum(axis=1)
    else:
        matrix = np.stack(reps)
        d = matrix.shape[1]
        norm2 = np.einsum("ij,ij->i", matrix, matrix)
    threshold = tau - 4 * d * 2.0**-53 * float(np.max(norm2))
    transposed = matrix.T
    block = max(1, _GRAM_BLOCK_ENTRIES // len(reps))
    for start in range(0, len(reps), block):
        gram = matrix[start:start + block] @ transposed
        if not isinstance(gram, np.ndarray):
            gram = gram.toarray()
        rows, cols = np.nonzero(~(gram < threshold))
        rows += start
        keep = cols > rows
        yield from zip(rows[keep].tolist(), cols[keep].tolist())


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
