"""Suspicious review clusters and near-identical pair analysis.

A cluster is the set of scored edges for one (app, sub-stream, burst
tick) triple, materialized from a microcluster event. Clusters are
ranked by mean anomaly score; within a cluster every pair of review
texts is compared by cosine similarity to quantify copy-paste behavior.

Embeddings are pluggable. The default is a deterministic lexical model:
lowercase, strip punctuation, collapse whitespace, then an L2-normalized
term-frequency vector over word unigrams and bigrams. Precomputed
vectors (from any external sentence encoder) can be supplied instead via
a JSONL sidecar keyed by review_id.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .detector import AnomalyRecord, MicroclusterEvent
from .partition import SubstreamLabel

_WORD_RE = re.compile(r"\w+", re.UNICODE)


class InconsistentRunError(ValueError):
    """Scores and events do not come from the same detector run."""


class MissingEmbeddingError(KeyError):
    """The external embedding sidecar lacks a required review_id."""


class EmbeddingFileError(ValueError):
    """An embedding sidecar line is malformed; the message names file:line."""


@dataclass(frozen=True)
class SuspiciousCluster:
    app_id: str
    substream: SubstreamLabel
    tick: int  # burst tick (the period after the prior baseline)
    members: tuple[AnomalyRecord, ...]
    mean_score: float

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SimilarityPair:
    """An unordered review pair; ids are stored sorted."""

    review_id_a: str
    review_id_b: str
    similarity: float


@dataclass(frozen=True)
class PairAnalysis:
    pairs: tuple[SimilarityPair, ...]
    flagged_review_ids: frozenset[str]
    evaluated_count: int  # members that carried text
    textless_count: int


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

    def vector(self, review_id: str, text: str):
        return lexical_vector(text)


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
                    review_id, vec = obj["review_id"], np.asarray(obj["vector"], dtype=np.float64)
                except (ValueError, KeyError, TypeError) as exc:
                    raise EmbeddingFileError(
                        f"{where}: not a {{review_id, vector}} object: {exc!r}"
                    ) from None
                if not isinstance(review_id, str):
                    raise EmbeddingFileError(f"{where}: review_id must be a string")
                if vec.ndim != 1:
                    raise EmbeddingFileError(f"{where}: vector must be 1-D")
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

    def vector(self, review_id: str, text: str) -> np.ndarray:
        try:
            return self._vectors[review_id]
        except KeyError:
            raise MissingEmbeddingError(
                f"no embedding for review_id {review_id!r}"
            ) from None


def collect_clusters(
    events: Sequence[MicroclusterEvent], records: Sequence[AnomalyRecord]
) -> list[SuspiciousCluster]:
    """One cluster per event: all same-sub-stream scored edges of the
    event's app in its burst tick."""
    index: dict[tuple, list[AnomalyRecord]] = defaultdict(list)
    for rec in records:
        index[(rec.edge.app_id, rec.substream, rec.tick)].append(rec)
    clusters: list[SuspiciousCluster] = []
    for event in events:
        members = index.get((event.app_id, event.substream, event.burst_tick))
        if not members:
            raise InconsistentRunError(
                f"event for app {event.app_id!r} at tick {event.burst_tick} "
                f"({event.substream.value}) has no scored edges"
            )
        mean_score = sum(m.score for m in members) / len(members)
        clusters.append(SuspiciousCluster(
            app_id=event.app_id,
            substream=event.substream,
            tick=event.burst_tick,
            members=tuple(members),
            mean_score=mean_score,
        ))
    return clusters


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


def pairwise_similarity(reviews, provider, tau: float) -> PairAnalysis:
    """Evaluate all unordered text pairs among a set of reviews.

    Reviews without text are excluded from pairing but counted. Returns
    pairs with similarity >= tau, sorted by similarity desc then ids
    asc, plus the set of reviews appearing in at least one pair.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    reviews = list(reviews)
    with_text = [r for r in reviews if r.text is not None]
    vectors = [provider.vector(r.review_id, r.text) for r in with_text]
    pairs: list[SimilarityPair] = []
    flagged: set[str] = set()
    for i in range(len(with_text)):
        for j in range(i + 1, len(with_text)):
            sim = cosine(vectors[i], vectors[j])
            if sim >= tau:
                id_a, id_b = sorted(
                    (with_text[i].review_id, with_text[j].review_id)
                )
                pairs.append(SimilarityPair(id_a, id_b, sim))
                flagged.add(id_a)
                flagged.add(id_b)
    pairs.sort(key=lambda p: (-p.similarity, p.review_id_a, p.review_id_b))
    return PairAnalysis(
        pairs=tuple(pairs),
        flagged_review_ids=frozenset(flagged),
        evaluated_count=len(with_text),
        textless_count=len(reviews) - len(with_text),
    )


def near_identical_pairs(
    cluster: SuspiciousCluster, provider, tau: float
) -> PairAnalysis:
    """Pair analysis over one cluster's member reviews."""
    return pairwise_similarity(
        (m.edge for m in cluster.members), provider, tau
    )


def build_cluster_report(
    ranked: Sequence[SuspiciousCluster],
    provider,
    tau: float,
    max_pairs_listed: int = 10,
) -> list[dict]:
    """JSON-ready report entries, one per cluster, in rank order."""
    report = []
    for cluster in ranked:
        analysis = near_identical_pairs(cluster, provider, tau)
        report.append({
            "app_id": cluster.app_id,
            "substream": cluster.substream.value,
            "tick": cluster.tick,
            "size": cluster.size,
            "mean_score": cluster.mean_score,
            "textless_count": analysis.textless_count,
            "flagged_count": len(analysis.flagged_review_ids),
            "pair_count": len(analysis.pairs),
            "top_pairs": [
                {"a": p.review_id_a, "b": p.review_id_b, "similarity": p.similarity}
                for p in analysis.pairs[:max_pairs_listed]
            ],
            "provider": provider.name,
            "tau": tau,
        })
    return report
