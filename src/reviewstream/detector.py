"""Streaming microcluster detector for one review sub-stream.

Each app in a sub-stream is a counting entity. Two count-min estimates
over the same hashed columns track it: its count within the current
detection tick, and a filtered, decayed historical total held in a
sketch. Every arriving edge is
scored with a chi-squared statistic comparing the app's current-tick
rate against its historical per-tick mean:

    score = (cur - total / tick) ** 2 * (tick * tick) / (total * (tick - 1))

where ``cur`` is the current-tick estimate after counting the edge,
``total`` is the historical estimate plus ``cur``, and ``tick`` is the
edge's 1-based tick index. The score is 0 at tick 1 or when the total is
0: with no history there is nothing to test. Tests that re-derive scores
must reproduce this exact expression and operation order, with ``** 2``
as Python computes it (libm ``pow``): ``x * x``, which numpy's ``** 2``
computes, differs in the last bit for about one value in a thousand.

At every tick boundary each app active in the closing tick is merged
into its history. The merge is conditional: if the app's final score for
the tick exceeded ``filter_threshold``, the tick's raw count is replaced
by the app's expected per-tick count, which keeps one burst from
inflating the baseline that later ticks are judged against. Replacing a
closing tick ``n`` count by the self-consistent expectation means adding
``history / (n - 1)``, i.e. scaling history by ``n / (n - 1)``.
Non-anomalous ticks merge their raw count unchanged. After the merges
the historical sketch decays by ``decay`` once per elapsed tick.

Separately from the sketch, exact raw per-(app, tick) counts drive
the burst-ratio test: a microcluster event fires for app ``a`` at tick
``n + 1`` when

    count(a, n + 1) / max(count(a, n), min_prior) > burst_factor

using raw counts, untouched by filtering or decay. ``min_prior`` guards
the zero denominator so a burst after silence still registers with a
finite ratio.

Scoring is batched and bit-identical to scoring one edge at a time.
History is constant within a tick, so everything but the history comes
from whole-batch array work: exact uint64 ticks, one hash per distinct
app, current-tick estimates as running counts per (tick, counter), raw
counts per (app, tick) group. One loop over ticks reads, merges into
and decays the history sketch, merging a tick's groups in order of first
appearance. Memory is the history sketch, a hashed slot per distinct app
and the edges of the last two ticks; it does not grow with stream length.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ingest import (BeforeOriginError, ReviewRows, ReviewTable, _csv_int, _quoted,
                     csv_after_comments, json_fields, write_columns)
from .partition import SubstreamLabel
from .sketch import DEFAULT_SEED, CountMinSketch, derive_row_seeds


class TimeRegressionError(ValueError):
    """Raised when an edge's tick precedes the detector's current tick."""


class TickGapError(ValueError):
    """Raised when decaying history across tick gaps would pass the work bound."""


# Counter updates a detector may spend decaying history, across all its
# batches: about 14 s at the default 2 x 1024 sketch. A gap costs one
# step per tick until a step changes nothing, about 750 / (1 - decay).
_DECAY_WORK_LIMIT = 2**32


@dataclass(frozen=True)
class DetectorConfig:
    """Full parameterization of one detector run.

    ``origin`` anchors tick 1 and must be given explicitly: tick ``n``
    covers ``(origin + (n-1)*period, origin + n*period]``, and ``origin``
    itself maps to tick 1. Input timestamp resolution (days vs seconds)
    is unknowable from the data alone. All other fields have working
    defaults: one-day ticks, better-than-doubling burst factor, and
    provisional decay/filter values that are echoed into every output
    header.
    """

    origin: int
    period: int = 86_400
    burst_factor: float = 2.0
    decay: float = 0.6
    filter_threshold: float = 1000.0
    min_prior: float = 1.0
    rows: int = 2
    cols: int = 1024
    sketch_seed: int = DEFAULT_SEED

    def validate(self) -> None:
        for f in fields(self):  # NaN fails no comparison below; inf is allowed
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{f.name} must be a number, got {value}")
        if not -(2**63) <= self.origin < 2**63:
            raise ValueError(f"origin must fit in int64, got {self.origin}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.burst_factor <= 1.0:
            raise ValueError(f"burst_factor must exceed 1, got {self.burst_factor}")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {self.decay}")
        if self.filter_threshold <= 0.0:
            raise ValueError(
                f"filter_threshold must be positive, got {self.filter_threshold}"
            )
        if self.min_prior < 0.0:
            raise ValueError(f"min_prior must be non-negative, got {self.min_prior}")
        if 0.0 < self.min_prior < 2.0**-960:  # 2**63 / 2**-960 is finite: no ratio overflows
            raise ValueError(f"min_prior must be 0 or at least 2**-960, got {self.min_prior}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"sketch geometry must be positive, got {self.rows}x{self.cols}")
        if self.rows > 64 or self.rows * self.cols > 2**24:  # 128 MB of counters
            raise ValueError(f"sketch geometry must have at most 64 rows and 2**24 counters, "
                             f"got {self.rows}x{self.cols}")

    def row_seeds(self) -> tuple[int, ...]:
        return derive_row_seeds(self.sketch_seed, self.rows)

    def to_dict(self) -> dict:
        """Every field, with the derived ``seeds`` in place of ``sketch_seed``."""
        out = asdict(self)
        del out["sketch_seed"]
        out["seeds"] = list(self.row_seeds())
        return out


@dataclass(frozen=True)
class MicroclusterEvent:
    """A better-than-``burst_factor`` jump in an app's raw per-tick count."""

    app_id: str
    substream: SubstreamLabel
    prior_tick: int
    prior_count: int
    burst_count: int
    ratio: float

    @property
    def burst_tick(self) -> int:
        return self.prior_tick + 1


_LABELS = tuple(SubstreamLabel)  # a sub-stream column holds indices into this
_LABEL_CODE = {label: code for code, label in enumerate(_LABELS)}
_LABEL_VALUES = tuple(label.value for label in _LABELS)
_UINT64 = 1 << 64


@dataclass(frozen=True, eq=False)
class ScoredStream:
    """Scored reviews as columns: row ``row[i]`` of ``table`` fell in tick
    ``tick[i]`` of sub-stream ``_LABELS[substream[i]]`` and scored
    ``score[i]``; ``counters`` are the run counts of the detector that
    scored it, and after its final batch its sketch use."""

    table: ReviewTable
    row: np.ndarray  # int64 row numbers of table
    tick: np.ndarray  # uint64: ticks reach 2**64 - 1 when origin is -2**63
    score: np.ndarray  # float64
    substream: np.ndarray  # int8
    counters: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.row)

    def __add__(self, other: "ScoredStream") -> "ScoredStream":
        if other.table is not self.table:
            raise ValueError("scored streams of different tables do not concatenate")
        return ScoredStream(self.table, *(
            np.concatenate((getattr(self, c), getattr(other, c)))
            for c in ("row", "tick", "score", "substream")))

    def scores(self, substream: SubstreamLabel) -> np.ndarray:
        return self.score[self.substream == _LABEL_CODE[substream]]


def _chi2(cur, hist, tick, tick2, tick1):
    """The score, from floats of the exact ``tick``, ``tick * tick`` and
    ``tick - 1``; ``float_power`` squares with libm ``pow``, as ``** 2``."""
    total = hist + cur
    dev = cur - total / tick
    score = np.float_power(dev, np.full_like(dev, 2.0)) * tick2 / (total * tick1)
    return np.where((tick1 > 0) & (total > 0.0), score, 0.0)


def _running_count(keys: np.ndarray) -> np.ndarray:
    """1 + the number of earlier equal keys, for each key."""
    order = np.argsort(keys, kind="stable")
    count = np.empty(len(keys))
    count[order] = np.arange(len(keys)) - np.searchsorted(keys[order], keys[order]) + 1
    return count


class Detector:
    """Single-pass scorer for one ordered sub-stream, fed in batches of
    any size, all rows of one table; one instance per sub-stream. The rows
    of the open tick and of the last closed one are kept and grouped again
    with the next batch, so one row at a time and the whole stream at once
    give the same scores, events and history. A run ends with a ``final``
    batch, which may be empty: ``process(table.rows(()), final=True)``.
    """

    def __init__(self, config: DetectorConfig, substream: SubstreamLabel):
        config.validate()
        self.config = config
        self.substream = substream
        self.counters = {"groups": 0, "filtered_merges": 0, "events": 0}  # of closed groups
        self._history = CountMinSketch(config.rows, config.cols, config.row_seeds())
        self._slots: dict[str, tuple[int, ...]] = {}  # each app hashed once
        self._held: ReviewRows | None = None  # rows of the last closed and the open tick
        self._finished = False
        self._decay_work = 0  # counters decayed so far, across batches

    def historical_total(self, app_id: str) -> float:
        """Decayed, filtered historical estimate for an app (closed ticks)."""
        return self._history.estimate(app_id)

    def _ticks(self, table: ReviewTable, row: np.ndarray) -> np.ndarray:
        """Each row's tick, exact for any int64 timestamp and origin. The
        first row before the origin or with a passed tick raises."""
        origin, period = self.config.origin, self.config.period
        stamps = table.timestamp[row]
        # 0 <= timestamp - origin < 2**64 at or after the origin: the uint64
        # difference is exact there, and wraps harmlessly before it
        delta = stamps.astype(np.uint64) - np.uint64(origin % _UINT64)
        width = np.uint64(min(period, _UINT64 - 1))
        ticks = np.maximum(delta // width + (delta % width != 0), 1)
        before = stamps < origin
        bad = np.flatnonzero(before | np.append(False, ticks[1:] < ticks[:-1]))
        if not len(bad):
            return ticks
        i = bad[0]
        if before[i]:
            raise BeforeOriginError(f"timestamp {stamps[i]} precedes origin {origin}")
        raise TimeRegressionError(f"edge {table.review_id[row[i]]!r} at tick {ticks[i]} "
                                  f"after tick {ticks[i - 1]}")

    def process(self, rows: ReviewRows, final: bool = False
                ) -> tuple[ScoredStream, list[MicroclusterEvent]]:
        """Score a batch of rows in stream order; with ``final``, also
        close the last tick and finish the run. Returns the batch's scores
        and the events of the ticks it closed. The rows of every batch
        come from one table."""
        if self._finished:
            raise RuntimeError("detector already finished")
        cfg, held, table = self.config, 0, rows.table
        row = rows.row
        if self._held is not None:
            if self._held.table is not table:
                raise ValueError("every batch of a detector run must come from one table")
            held, row = len(self._held), np.concatenate((self._held.row, row))
        ticks, n = self._ticks(table, row), len(row)
        done = int(held > 0 and ticks[0] != ticks[held - 1])  # held rows of a closed tick first
        self._finished, self._held = final, None
        if not n:
            return self._scored(table, row, ticks, np.zeros(0)), []
        tick_start = np.append(0, np.flatnonzero(ticks[1:] != ticks[:-1]) + 1)
        tick_values = ticks[tick_start].tolist()
        edge_tick = np.searchsorted(tick_start, np.arange(n), side="right") - 1
        K, closes = len(tick_values), len(tick_values) - (not final)

        # Dense app codes, each app hashed once; cell[r, c] is app c's counter in row r.
        table_codes, code = np.unique(table.app[row], return_inverse=True)
        apps = list(map(table.app_ids.__getitem__, table_codes.tolist()))
        slots = [self._slots.get(a) or self._slots.setdefault(a, self._history.locate(a))
                 for a in apps]
        cell = (np.array(slots, np.int64).reshape(len(apps), cfg.rows).T
                + (np.arange(cfg.rows) * cfg.cols)[:, None])
        edge_cells = cell[:, code]
        # Current-tick estimate: a running count per (tick, counter), min over rows.
        cur = _running_count((edge_tick * (cfg.rows * cfg.cols) + edge_cells).ravel())
        cur = cur.reshape(cfg.rows, n).min(axis=0)

        # (tick, app) groups in close order: by tick, then by first appearance.
        keys, first, inverse, counts = np.unique(edge_tick * len(apps) + code, return_index=True,
                                                 return_inverse=True, return_counts=True)
        close = np.argsort(first)
        group = np.argsort(close)[inverse]
        g_cur = np.zeros(len(close))
        np.maximum.at(g_cur, group, cur)  # the last edge's: running counts only grow
        g_cell, g_hist = cell[:, keys[close] % len(apps)], np.empty(len(close))
        bounds = np.searchsorted(keys[close] // len(apps), np.arange(K + 1)).tolist()
        factors = np.array([(float(t), float(t * t), float(t - 1)) for t in tick_values]).T

        # History is constant within a tick: read it per group, then close the tick.
        history = self._history.counters.reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(done, K):
                a, b, tick = bounds[k], bounds[k + 1], tick_values[k]
                g_hist[a:b] = history[g_cell[:, a:b]].min(axis=0)
                if k == closes:
                    break
                last = _chi2(g_cur[a:b], g_hist[a:b], *factors[:, k])
                filtered = (last > cfg.filter_threshold) & (tick >= 2)
                self._merge(history, g_cell[:, a:b], counts[close[a:b]], filtered, tick)
                for _ in range(tick_values[k + 1] - tick if k + 1 < K else 0):
                    self._decay_work += cfg.rows * cfg.cols
                    if self._decay_work > _DECAY_WORK_LIMIT:
                        raise TickGapError(
                            f"decaying history from tick {tick} to tick {tick_values[k + 1]}, "
                            f"before review {table.review_id[row[tick_start[k + 1]]]!r}, would "
                            f"pass {_DECAY_WORK_LIMIT} counter updates; use a longer period "
                            f"or a lower decay")
                    if not self._history.decay(cfg.decay):
                        break
            score = _chi2(cur[held:], g_hist[group[held:]], *factors[:, edge_tick[held:]])
            events = self._burst_events(tick_values, apps, keys, counts,
                                        close[bounds[done]:bounds[closes]])

        self.counters["groups"] += bounds[closes] - bounds[done]
        self.counters["events"] += len(events)
        if not final:
            self._held = ReviewRows(table, row[tick_start[closes - 1] if closes else 0:])
        return self._scored(table, row[held:], ticks[held:], score), events

    def _scored(self, table, row, ticks, score) -> ScoredStream:
        labels = np.full(len(row), _LABEL_CODE[self.substream], np.int8)
        counters = dict(self.counters)
        if self._finished:
            counters.update(self._sketch_use())
        return ScoredStream(table, row, ticks, score, labels, counters)

    def _sketch_use(self) -> dict:
        """The share of nonzero history counters, and of the run's apps
        whose counter is another app's too in every row."""
        cfg, history = self.config, self._history.counters
        slots = np.array(list(self._slots.values()), np.int64).reshape(-1, cfg.rows)
        shared = np.ones(len(slots), bool)
        for col in slots.T:
            shared &= np.bincount(col, minlength=cfg.cols)[col] > 1
        return {"sketch_occupancy": np.count_nonzero(history) / history.size,
                "apps_colliding_all_rows": float(shared.mean()) if len(slots) else 0.0}

    def _merge(self, history: np.ndarray, cells: np.ndarray, counts: np.ndarray,
               filtered: np.ndarray, tick: int) -> None:
        """Merge one closing tick's groups into history in close order: the
        raw count, or for a filtered group the expected count, read after
        the earlier groups' inserts."""
        filtered = np.flatnonzero(filtered).tolist()
        self.counters["filtered_merges"] += len(filtered)
        weights = counts.astype(np.float64)
        done = 0
        for j in filtered + [len(counts)]:
            # One add.at per row: numpy 2.4 misreads values broadcast to a 2-D index.
            for row_cells in cells[:, done:j]:
                np.add.at(history, row_cells, weights[done:j])
            if j < len(counts):
                own = cells[:, j].tolist()
                expected = float(min(history[c] for c in own)) / (tick - 1)
                for c in own:
                    history[c] += expected
            done = j + 1

    def _burst_events(self, tick_values, apps, keys, counts,
                      closed: np.ndarray) -> list[MicroclusterEvent]:
        """Events of the ``closed`` groups (indices into ``keys``, in close
        order), from exact raw counts."""
        g_tick, g_app = np.divmod(keys[closed], len(apps))
        adjacent = np.array([k > 0 and tick_values[k - 1] == t - 1
                             for k, t in enumerate(tick_values)])[g_tick]
        want = keys[closed] - len(apps)  # the same app, one tick earlier
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        prior = np.where(adjacent & (keys[pos] == want), counts[pos], 0)
        burst, denom = counts[closed], np.maximum(prior, self.config.min_prior)
        ratio = burst / denom
        ticks = np.array(tick_values, dtype=object)[g_tick]
        fire = (ticks >= 2) & (denom > 0) & (ratio > self.config.burst_factor)
        return [MicroclusterEvent(apps[g_app[i]], self.substream, ticks[i] - 1, int(prior[i]),
                                  int(burst[i]), float(ratio[i]))
                for i in np.flatnonzero(fire).tolist()]


def run_detector(
    rows: ReviewRows, config: DetectorConfig, substream: SubstreamLabel
) -> tuple[ScoredStream, list[MicroclusterEvent]]:
    """Score a timestamp-ordered sub-stream in one pass."""
    return Detector(config, substream).process(rows, final=True)


# ---------------------------------------------------------------------------
# File formats: scores CSV with a config comment header, events JSONL. The
# event dataclass's fields name its keys and give their types.

SCORES_COLUMNS = ("review_id", "app_id", "reviewer_id", "tick", "substream", "score")


def write_scores_csv(scored: ScoredStream, config: DetectorConfig, path: str | Path) -> None:
    table, row = scored.table, scored.row
    app_ids, reviewer_ids = _quoted(table.app_ids), _quoted(table.reviewer_ids)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# reviewstream anomaly scores\n")
        fh.write(f"# config {json.dumps(config.to_dict(), sort_keys=True)}\n")
        fh.write(",".join(SCORES_COLUMNS) + "\n")
        write_columns(fh.write, "%s,%s,%s,%d,%s,%r\n", len(row),
                      lambda s: _quoted(list(map(table.review_id.__getitem__, row[s].tolist()))),
                      lambda s: map(app_ids.__getitem__, table.app[row[s]].tolist()),
                      lambda s: map(reviewer_ids.__getitem__, table.reviewer[row[s]].tolist()),
                      lambda s: scored.tick[s].tolist(),
                      lambda s: map(_LABEL_VALUES.__getitem__, scored.substream[s].tolist()),
                      lambda s: scored.score[s].tolist())


def read_scores_csv(path: str | Path, table: ReviewTable) -> tuple[ScoredStream, dict]:
    """The scored stream of a scores CSV over ``table``, each row found by
    its review_id, and the config of its header. A bad header, a row of
    the wrong width, a cell that does not convert, a tick that is not
    ASCII digits or lies outside [0, 2**64), a non-finite score, an
    unknown label, a review id missing from ``table`` or one scored twice
    raises ``ValueError``, and a config line nested past the recursion
    limit ``RecursionError``. Only the ``#`` lines before the header are
    comments."""
    with open(path, "r", encoding="utf-8") as fh:
        comments, reader = csv_after_comments(fh)
        _, header = next(reader, (0, None))
        numbered = [(lineno, row) for lineno, row in reader if row]
    config: dict = {}
    for line in comments:
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
    if header is None or tuple(header) != SCORES_COLUMNS:
        raise ValueError(f"unexpected scores header in {path}")
    index = {review_id: i for i, review_id in enumerate(table.review_id)}
    scored_ids: set[str] = set()
    for lineno, row in numbered:
        if len(row) != len(SCORES_COLUMNS):
            raise ValueError(f"scores row {row} has {len(row)} cells, not {len(SCORES_COLUMNS)}")
        review_id, _, _, _, substream, _ = row
        if review_id not in index:
            raise ValueError(f"scores row {row} has no matching review")
        if substream not in _LABEL_CODE:
            raise ValueError(f"scores row {row} has an unknown sub-stream")
        if review_id in scored_ids:
            raise ValueError(f"line {lineno}: review_id {review_id!r} is scored twice")
        scored_ids.add(review_id)
    rows = [row for _, row in numbered]
    ids, _, _, ticks, labels, scores = zip(*rows) if rows else ((),) * len(header)
    try:
        tick = np.array(list(map(_csv_int, ticks)), np.uint64)
    except OverflowError as exc:  # a tick outside [0, 2**64)
        raise ValueError(f"bad tick: {exc}") from None
    score = np.array(list(map(float, scores)), np.float64)
    finite = np.isfinite(score)
    if not finite.all():
        raise ValueError(f"scores row {rows[finite.argmin()]} has a non-finite score")
    row = np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    return ScoredStream(table, row, tick, score,
                        np.array(list(map(_LABEL_CODE.__getitem__, labels)), np.int8)), config


_EVENT_LINE = ('{"app_id": %s, "burst_count": %d, "prior_count": %d, "prior_tick": %d, '
               '"ratio": %r, "substream": "%s"}\n')  # the fields in sorted order


def write_events_jsonl(events: Iterable[MicroclusterEvent], path: str | Path) -> None:
    events = events if isinstance(events, Sequence) else list(events)
    app_ids = {app: json.dumps(app) for app in {event.app_id for event in events}}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_columns(fh.write, _EVENT_LINE, len(events),
                      lambda s: map(app_ids.__getitem__, map(attrgetter("app_id"), events[s])),
                      *((lambda s, get=attrgetter(name): map(get, events[s])) for name in
                        ("burst_count", "prior_count", "prior_tick", "ratio", "substream.value")))


def read_events_jsonl(path: str | Path) -> list[MicroclusterEvent]:
    """Events of a JSONL file, each line read by ``json_fields``; a bad line,
    or one nested past the recursion limit, raises ``ValueError`` naming it."""
    events: list[MicroclusterEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                values = json_fields(MicroclusterEvent, json.loads(line))
            except (ValueError, RecursionError) as exc:  # also JSON nested too deeply
                raise ValueError(f"line {lineno}: {exc}") from exc
            events.append(MicroclusterEvent(**values))
    return events
