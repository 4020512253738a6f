"""Statistical comparisons and dataset summaries.

Welch's t-test (one-sided by default, directional hypotheses), empirical
CDFs of anomaly scores, the shared-reviewer app network, and headline
stream counts. All operations are pure functions of their inputs.

``welch_t`` takes its tails from a ``TailHelper``, a forked process that
loads scipy's compiled ``stdtr`` while the caller works, or else imports
``scipy.special`` itself.
"""

from __future__ import annotations

import math
import os
import signal
import struct
import sys
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ingest import ReviewTable
from .partition import PartitionResult


class TooSmallError(ValueError):
    """A sample has fewer than two observations."""


class DegenerateSamplesError(ValueError):
    """The t statistic or its degrees of freedom is undefined or not
    finite: both samples have zero variance, or the variances over- or
    underflow float64."""


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


def student_t_tails(df: float, t: float) -> tuple[float, float]:
    """P(T > t) and P(|T| > |t|) for Student's t with ``df`` degrees of freedom."""
    # Imported here, not at module level: only the t-test needs scipy. The
    # Student t survival function is ``stdtr(df, -t)``, what ``scipy.stats.t.sf``
    # itself computes, without the second it takes to import ``scipy.stats``.
    from scipy.special import stdtr

    return float(stdtr(df, -t)), float(2.0 * stdtr(df, -abs(t)))


def _bare_scipy_special() -> None:
    """Make ``scipy.special`` a bare package holding only the compiled
    ``stdtr`` of ``scipy.special._ufuncs`` (the object the full package
    exports), without running ``scipy/special/__init__.py``, whose array
    API layer loads ``numpy.f2py`` and ``numpy.testing``: about 0.02 s and
    5 MB of RSS against 0.24 s and 26 MB. ``scipy.stats`` and the rest of
    ``scipy.special`` no longer import after it, so only a process that
    exits right after may call this."""
    import importlib.util
    import types

    bare = types.ModuleType("scipy.special")  # find_spec imports the scipy package
    bare.__path__ = importlib.util.find_spec("scipy.special").submodule_search_locations
    sys.modules["scipy.special"] = bare
    from scipy.special._ufuncs import stdtr

    bare.stdtr = stdtr


class TailHelper:
    """A forked process that loads scipy's compiled ``stdtr`` while the
    caller works (or keeps the caller's ``scipy.special``), answers one
    ``student_t_tails(df, t)`` on a pipe, writes nothing else (to fd 1 and
    2 neither) and leaves by ``os._exit``. ``tails(df, t)`` reaps it, with
    its peak RSS in ``peak_rss_mb``, and returns None where there is no
    helper (no ``os.fork``, a failed fork, other threads running) or it
    died or failed to load ``stdtr`` first; ``close`` kills and reaps it."""

    def __enter__(self) -> TailHelper:
        self.pid, self.peak_rss_mb, self._fds = None, None, []
        if threading.active_count() > 1:  # a lock another thread holds stays held in a child
            return self
        try:
            for _ in range(2):
                self._fds += os.pipe()
            self.pid = os.fork()
        except (AttributeError, OSError):  # no os.fork, or no descriptor or process to spare
            return self
        request_in, self._request, self._answer, answer_out = self._fds
        if self.pid == 0:
            try:
                sys.stdout = sys.stderr = None
                os.close(self._request)  # a parent gone without asking reads as EOF
                if "scipy.special" not in sys.modules:  # a caller's package is kept
                    _bare_scipy_special()  # the slow part, while the parent works
                df, t = struct.unpack("dd", os.read(request_in, 16))
                os.write(answer_out, struct.pack("dd", *student_t_tails(df, t)))
            finally:
                os._exit(0)
        os.close(request_in)
        os.close(answer_out)
        self._fds = [self._request, self._answer]
        return self

    def __call__(self, df: float, t: float) -> tuple[float, float] | None:
        if self.pid is None:
            return None
        try:
            os.write(self._request, struct.pack("dd", df, t))
            answer = os.read(self._answer, 16)  # 16 bytes are one atomic pipe write
        except OSError:  # a broken pipe: the helper is gone
            answer = b""
        self.close()
        if len(answer) != 16:
            return None
        self.peak_rss_mb = round(self._usage.ru_maxrss / 1024, 1)  # KiB, as Linux gives it
        return struct.unpack("dd", answer)

    def close(self, *exc) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._usage = os.wait4(self.pid, 0)[2]
            self.pid = None
        for fd in self._fds:
            os.close(fd)
        self._fds = []

    __exit__ = close


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float],
            tails: TailHelper | None = None) -> WelchResult:
    """Welch's unequal-variance t-test.

    The one-sided p-value is the upper tail, i.e. evidence for
    mean_a > mean_b; swap the samples for the opposite direction. The
    tails are ``tails(df, t)`` if it answers, else ``student_t_tails``
    in this process: the same bits either way.

    The degrees of freedom lose precision when ``var / n`` squared is
    subnormal (``var / n`` between about 2.2e-162 and 1.5e-154):
    ``[0, 1e-79]`` against ``[0, 3e-79]`` gives df 1.2195121899 where the
    exact value is 1.2195121951. Scaling before squaring would fix that
    but would change df bits that ``summary.json`` records.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a < 2 or n_b < 2:
        raise TooSmallError(f"need at least 2 observations per sample, got {n_a} and {n_b}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a, mean_b = float(a.mean()), float(b.mean())
        var_a = float(a.var(ddof=1))
        var_b = float(b.var(ddof=1))
    if not all(map(math.isfinite, (mean_a, mean_b, var_a, var_b))):
        raise DegenerateSamplesError("sample means or variances overflow float64")
    sa, sb = var_a / n_a, var_b / n_b
    se = math.sqrt(sa + sb)
    if se == 0.0:
        raise DegenerateSamplesError("both samples have zero variance")
    t = (mean_a - mean_b) / se
    try:
        df = (sa + sb) ** 2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))
    except (OverflowError, ZeroDivisionError):
        df = math.inf
    if not (math.isfinite(t) and math.isfinite(df)):
        raise DegenerateSamplesError(
            "variances out of float64 range: t or its degrees of freedom is not finite")
    p_one, p_two = (tails and tails(df, t)) or student_t_tails(df, t)
    return WelchResult(t, df, p_one, p_two, mean_a, mean_b, var_a, var_b, n_a, n_b)


@dataclass(frozen=True)
class EcdfPoints:
    """Empirical CDF support points: strictly increasing values with
    non-decreasing cumulative fractions ending at exactly 1."""

    values: np.ndarray
    fractions: np.ndarray


def ecdf(values: Sequence[float]) -> EcdfPoints:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptySampleError("cannot build an ECDF from an empty sample")
    uniq, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.size
    return EcdfPoints(values=uniq, fractions=fractions)


# Pair increments expanded at a time, with about 40 bytes of working arrays
# each: a reviewer of any app degree costs time, not memory beyond one block
# plus the distinct pairs found.
_PAIR_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class SharedReviewerGraph:
    """The shared-reviewer network as three equal-length columns, one row
    per app pair with ``app_a < app_b``, in ``(app_a, app_b)`` order. The
    app columns hold codes into ``apps``, the app ids in sorted order."""

    apps: list[str]
    app_a: np.ndarray  # int64 codes into apps
    app_b: np.ndarray
    weight: np.ndarray  # int64, >= 1

    def __len__(self) -> int:
        return len(self.weight)


def range_blocks(starts: np.ndarray, counts: np.ndarray, block: int
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ranges ``starts[i] .. starts[i] + counts[i] - 1`` laid end to end
    and cut into blocks of at most ``block`` entries. Each block is
    ``(items, positions)``: entry k is position ``positions[k]`` of the
    range of item ``items[k]``, in order. A block may cut a range."""
    ends = np.cumsum(counts)
    begins = ends - counts
    shift = starts - begins
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        # Items whose entries fall in [lo, hi), the first and last cut to the block.
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right"))
        taken = counts[first:last + 1].copy()
        taken[0] -= lo - begins[first]
        taken[-1] -= ends[last] - hi
        items = np.repeat(np.arange(first, last + 1), taken)
        yield items, shift[items] + np.arange(lo, hi)


def pair_blocks(groups: np.ndarray, block: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The positions ``i < j`` with ``groups[i] == groups[j]`` in a sorted
    ``groups``, as blocks of ``(left, right)`` from ``range_blocks``: by
    left, then right. Position i pairs with i+1 .. the end of its group."""
    n = len(groups)
    group_starts = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
    group_ends = np.append(group_starts[1:], n)
    partners = np.repeat(group_ends, group_ends - group_starts) - np.arange(n) - 1
    return range_blocks(np.arange(1, n + 1), partners, block)


def _add_counts(keys: np.ndarray, counts: np.ndarray, new_keys: np.ndarray,
                new_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted distinct ``new_keys`` and their counts into sorted
    distinct ``keys``; counts add in int64, ``counts`` in place."""
    pos = np.searchsorted(keys, new_keys)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == new_keys[found]
    counts[pos[found]] += new_counts[found]
    fresh = ~found
    return (np.insert(keys, pos[fresh], new_keys[fresh]),
            np.insert(counts, pos[fresh], new_counts[fresh]))


def count_distinct(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct int64 values over all ``blocks``, sorted, and how many
    times each occurs. Each block is counted on its own, and the counted
    runs merge in size-doubling levels: a run merges into the one below it
    while it holds at least half as many keys, so a key of a block takes
    part in O(log blocks) merges, not one per later block."""
    runs: list[tuple[np.ndarray, np.ndarray]] = []
    for block in blocks:
        keys, counts = np.unique(block, return_counts=True)
        while runs and 2 * len(keys) >= len(runs[-1][0]):
            keys, counts = _add_counts(*runs.pop(), keys, counts)
        runs.append((keys, counts))
    keys, counts = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    for run in reversed(runs):  # smallest first
        keys, counts = _add_counts(*run, keys, counts)
    return keys, counts


def shared_reviewer_graph(table: ReviewTable) -> SharedReviewerGraph:
    """Weight(a, b) = number of distinct reviewers with at least one
    review on each of a and b, over the rows of ``table``. Zero-weight
    pairs are omitted; repeat reviews by the same reviewer on the same app
    count once.

    Time grows with the sum over reviewers of C(app degree, 2), times the
    log of the number of blocks; memory with one block of
    ``_PAIR_BLOCK_ENTRIES`` pair increments plus the distinct pairs.
    """
    # Re-code apps by their rank in sorted order, so that sorting pairs of
    # codes sorts the pairs of ids.
    by_id = sorted(range(len(table.app_ids)), key=table.app_ids.__getitem__)
    apps = list(map(table.app_ids.__getitem__, by_id))
    n_apps = len(apps)
    rank = np.empty(n_apps, dtype=np.int64)
    rank[by_id] = np.arange(n_apps)

    # Distinct (reviewer, app), grouped by reviewer, apps ascending inside;
    # a sort and a mask, as numpy 2.4's np.unique takes a slower hash path.
    memberships = np.sort(table.reviewer * n_apps + rank[table.app])
    memberships = memberships[np.diff(memberships, prepend=-1) != 0]
    reviewer, app = np.divmod(memberships, n_apps)
    keys, counts = count_distinct(app[left] * n_apps + app[right]
                                  for left, right in pair_blocks(reviewer, _PAIR_BLOCK_ENTRIES))
    code_a, code_b = np.divmod(keys, n_apps)
    return SharedReviewerGraph(apps, code_a, code_b, counts)


@dataclass(frozen=True)
class StreamSummary:
    reviews: int
    reviewers: int
    apps: int
    boost: int
    sink: int
    unpartitioned: int


def _used(codes: np.ndarray, n: int) -> int:
    """How many of the codes 0..n-1 occur in ``codes``."""
    return int(np.count_nonzero(np.bincount(codes, minlength=n)))


def summarize(partitioned: PartitionResult) -> StreamSummary:
    """Exact headline counts for a partitioned stream; distinctness by id,
    counted as the codes its rows use."""
    table = partitioned.boost.table
    row = np.concatenate([partitioned.boost.row, partitioned.sink.row,
                          partitioned.unpartitioned.row])
    counts = partitioned.counts()
    return StreamSummary(
        reviews=sum(counts.values()),
        reviewers=_used(table.reviewer[row], len(table.reviewer_ids)),
        apps=_used(table.app[row], len(table.app_ids)),
        **counts,
    )
