"""Statistical comparisons and dataset summaries.

Welch's t-test (one-sided by default, directional hypotheses), empirical
CDFs of anomaly scores, the shared-reviewer app network, and headline
stream counts. All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ingest import ReviewEdge
from .partition import PartitionResult


class TooSmallError(ValueError):
    """A sample has fewer than two observations."""


class DegenerateSamplesError(ValueError):
    """Both samples have zero variance; the t statistic is undefined."""


class EmptySampleError(ValueError):
    pass


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float  # Welch-Satterthwaite degrees of freedom
    p_one_sided: float  # upper tail: mean_a > mean_b
    p_two_sided: float
    mean_a: float
    mean_b: float
    var_a: float  # unbiased
    var_b: float
    n_a: int
    n_b: int


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float]) -> WelchResult:
    """Welch's unequal-variance t-test.

    The one-sided p-value is the upper tail, i.e. evidence for
    mean_a > mean_b; swap the samples for the opposite direction.
    """
    # Imported here, not at module level: only the t-test needs scipy. The
    # Student t survival function is ``stdtr(df, -t)``, what ``scipy.stats.t.sf``
    # itself computes, without the second it takes to import ``scipy.stats``.
    from scipy.special import stdtr

    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a < 2 or n_b < 2:
        raise TooSmallError(f"need at least 2 observations per sample, got {n_a} and {n_b}")
    mean_a, mean_b = float(a.mean()), float(b.mean())
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    sa, sb = var_a / n_a, var_b / n_b
    se = math.sqrt(sa + sb)
    if se == 0.0:
        raise DegenerateSamplesError("both samples have zero variance")
    t = (mean_a - mean_b) / se
    df = (sa + sb) ** 2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))
    p_one = float(stdtr(df, -t))
    p_two = float(2.0 * stdtr(df, -abs(t)))
    return WelchResult(t, df, p_one, p_two, mean_a, mean_b, var_a, var_b, n_a, n_b)


@dataclass(frozen=True)
class EcdfPoints:
    """Empirical CDF support points: strictly increasing values with
    non-decreasing cumulative fractions ending at exactly 1."""

    values: np.ndarray
    fractions: np.ndarray

    def fraction_at(self, x: float) -> float:
        """F(x) = fraction of the sample <= x."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        return 0.0 if idx == 0 else float(self.fractions[idx - 1])

    def rows(self) -> Iterable[tuple[float, float]]:
        return zip(self.values.tolist(), self.fractions.tolist())


def ecdf(values: Sequence[float]) -> EcdfPoints:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptySampleError("cannot build an ECDF from an empty sample")
    uniq, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.size
    return EcdfPoints(values=uniq, fractions=fractions)


@dataclass(frozen=True)
class SharedReviewerEdge:
    """Undirected app pair weighted by the count of distinct reviewers
    who reviewed both; ids stored sorted, no self-loops."""

    app_a: str
    app_b: str
    weight: int


def shared_reviewer_graph(edges: Iterable[ReviewEdge]) -> list[SharedReviewerEdge]:
    """Weight(a, b) = number of distinct reviewers with at least one
    review on each of a and b. Zero-weight pairs are omitted; repeat
    reviews by the same reviewer on the same app count once."""
    apps_by_reviewer: dict[str, set[str]] = defaultdict(set)
    for edge in edges:
        apps_by_reviewer[edge.reviewer_id].add(edge.app_id)
    weights: Counter = Counter()
    for apps in apps_by_reviewer.values():
        if len(apps) < 2:
            continue
        ordered = sorted(apps)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                weights[(ordered[i], ordered[j])] += 1
    return [
        SharedReviewerEdge(pair[0], pair[1], count)
        for pair, count in sorted(weights.items())
    ]


@dataclass(frozen=True)
class StreamSummary:
    reviews: int
    reviewers: int
    apps: int
    boost: int
    sink: int
    unpartitioned: int


def summarize(partitioned: PartitionResult) -> StreamSummary:
    """Exact headline counts for a partitioned stream; distinctness by id."""
    reviewers: set[str] = set()
    apps: set[str] = set()
    for edges in (partitioned.boost, partitioned.sink, partitioned.unpartitioned):
        for edge in edges:
            reviewers.add(edge.reviewer_id)
            apps.add(edge.app_id)
    counts = partitioned.counts()
    return StreamSummary(
        reviews=sum(counts.values()),
        reviewers=len(reviewers),
        apps=len(apps),
        **counts,
    )
