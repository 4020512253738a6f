"""Streaming microcluster detector for one review sub-stream.

Each app in a sub-stream is a counting entity. Two count-min sketches
track it: one holds the app's count within the current detection tick,
the other a filtered, decayed historical total. Every arriving edge is
scored with a chi-squared statistic comparing the app's current-tick
rate against its historical per-tick mean:

    score = (cur - total / tick) ** 2 * (tick * tick) / (total * (tick - 1))

where ``cur`` is the current-tick estimate after counting the edge,
``total`` is the historical estimate plus ``cur``, and ``tick`` is the
edge's 1-based tick index. The score is 0 at tick 1 or when the total is
0: with no history there is nothing to test. Tests that re-derive scores
must reproduce this exact expression and operation order.

At every tick boundary each app active in the closing tick is merged
into its history. The merge is conditional: if the app's final score for
the tick exceeded ``filter_threshold``, the tick's raw count is replaced
by the app's expected per-tick count, which keeps one burst from
inflating the baseline that later ticks are judged against. Replacing a
closing tick ``n`` count by the self-consistent expectation means adding
``history / (n - 1)``, i.e. scaling history by ``n / (n - 1)``.
Non-anomalous ticks merge their raw count unchanged. After the merges
the historical sketch decays by ``decay`` once per elapsed tick and the
current-tick sketch resets.

Separately from the sketches, exact raw per-tick counts are kept in
small per-app registers to drive the burst-ratio test: a microcluster
event fires for app ``a`` at tick ``n + 1`` when

    count(a, n + 1) / max(count(a, n), min_prior) > burst_factor

using raw counts, untouched by filtering or decay. ``min_prior`` guards
the zero denominator so a burst after silence still registers with a
finite ratio.

Processing is a single pass: constant-size sketches plus one small
register per active app, so memory does not grow with stream length.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, get_type_hints

from .ingest import ReviewEdge, to_tick
from .partition import SubstreamLabel
from .sketch import DEFAULT_SEED, CountMinSketch, derive_row_seeds


class TimeRegressionError(ValueError):
    """Raised when an edge's tick precedes the detector's current tick."""


@dataclass(frozen=True)
class DetectorConfig:
    """Full parameterization of one detector run.

    ``origin`` anchors tick 1 and must be given explicitly; input
    timestamp resolution (days vs seconds) is unknowable from the data
    alone. All other fields have working defaults: one-day ticks,
    better-than-doubling burst factor, and provisional decay/filter
    values that are echoed into every output header.
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
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"sketch geometry must be positive, got {self.rows}x{self.cols}")

    def row_seeds(self) -> tuple[int, ...]:
        return derive_row_seeds(self.sketch_seed, self.rows)

    def to_dict(self) -> dict:
        """Every field, with the derived ``seeds`` in place of ``sketch_seed``."""
        out = asdict(self)
        del out["sketch_seed"]
        out["seeds"] = list(self.row_seeds())
        return out


@dataclass(frozen=True)
class AnomalyRecord:
    """One scored edge."""

    edge: ReviewEdge
    substream: SubstreamLabel
    tick: int
    score: float


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


def evaluate_burst(
    prior_count: float, burst_count: float, burst_factor: float, min_prior: float
) -> float | None:
    """Ratio of consecutive-tick counts if it strictly exceeds the burst
    factor, else None. A non-positive guarded denominator never fires."""
    denom = max(prior_count, min_prior)
    if denom <= 0:
        return None
    ratio = burst_count / denom
    return ratio if ratio > burst_factor else None


@dataclass
class _AppRegister:
    slots: tuple[int, ...]  # the app's sketch column in each row
    open_tick: int
    cur_raw: int = 0
    last_score: float = 0.0
    prev_tick: int = 0  # most recent closed tick with a recorded count
    prev_raw: int = 0


class Detector:
    """Single-pass scorer for one ordered sub-stream.

    One instance per sub-stream; instances are independent and never
    share state.
    """

    def __init__(self, config: DetectorConfig, substream: SubstreamLabel):
        config.validate()
        seeds = config.row_seeds()
        self.config = config
        self.substream = substream
        self.events: list[MicroclusterEvent] = []
        self._current = CountMinSketch(config.rows, config.cols, seeds)
        self._history = CountMinSketch(config.rows, config.cols, seeds)
        self._registers: dict[str, _AppRegister] = {}
        self._touched: list[str] = []
        self._tick = 0
        self._finished = False

    @property
    def tick(self) -> int:
        return self._tick

    def historical_total(self, app_id: str) -> float:
        """Decayed, filtered historical estimate for an app (closed ticks)."""
        register = self._registers.get(app_id)
        slots = register.slots if register is not None else self._history.locate(app_id)
        return self._history.estimate_at(slots)

    def process_edge(self, edge: ReviewEdge) -> AnomalyRecord:
        if self._finished:
            raise RuntimeError("detector already finished")
        tick = to_tick(edge.timestamp, self.config.origin, self.config.period)
        if tick < self._tick:
            raise TimeRegressionError(
                f"edge {edge.review_id!r} at tick {tick} after tick {self._tick}"
            )
        if tick > self._tick:
            self._advance_to(tick)

        register = self._registers.get(edge.app_id)
        if register is None:
            register = _AppRegister(self._current.locate(edge.app_id), tick)
            self._registers[edge.app_id] = register
            self._touched.append(edge.app_id)
        elif register.open_tick != tick:
            register.open_tick = tick
            register.cur_raw = 0
            register.last_score = 0.0
            self._touched.append(edge.app_id)
        register.cur_raw += 1

        slots = register.slots
        self._current.insert_at(slots, 1.0)
        cur = self._current.estimate_at(slots)
        total = self._history.estimate_at(slots) + cur
        if tick <= 1 or total <= 0.0:
            score = 0.0
        else:
            score = (cur - total / tick) ** 2 * (tick * tick) / (total * (tick - 1))
        register.last_score = score
        return AnomalyRecord(edge, self.substream, tick, score)

    def finish(self) -> list[MicroclusterEvent]:
        """Close the final open tick and return all events of the run."""
        if not self._finished:
            if self._tick >= 1:
                self._close_tick()
            self._finished = True
        return self.events

    def _advance_to(self, new_tick: int) -> None:
        if self._tick >= 1:
            self._close_tick()
            # Once a step leaves the grid unchanged every later step does
            # too: a gap of any length costs about 750 / (1 - decay) steps.
            for _ in range(new_tick - self._tick):
                if not self._history.decay(self.config.decay):
                    break
            self._current.clear()
        self._tick = new_tick

    def _close_tick(self) -> None:
        closing = self._tick
        cfg = self.config
        for app_id in self._touched:
            register = self._registers[app_id]
            if closing >= 2:
                prior = register.prev_raw if register.prev_tick == closing - 1 else 0
                ratio = evaluate_burst(
                    prior, register.cur_raw, cfg.burst_factor, cfg.min_prior
                )
                if ratio is not None:
                    self.events.append(MicroclusterEvent(
                        app_id=app_id,
                        substream=self.substream,
                        prior_tick=closing - 1,
                        prior_count=prior,
                        burst_count=register.cur_raw,
                        ratio=ratio,
                    ))
            slots = register.slots
            if register.last_score > cfg.filter_threshold and closing >= 2:
                expected = self._history.estimate_at(slots) / (closing - 1)
                self._history.insert_at(slots, expected)
            else:
                self._history.insert_at(slots, float(register.cur_raw))
            register.prev_tick = closing
            register.prev_raw = register.cur_raw
        self._touched = []


def run_detector(
    edges: Iterable[ReviewEdge], config: DetectorConfig, substream: SubstreamLabel
) -> tuple[list[AnomalyRecord], list[MicroclusterEvent]]:
    """Score a timestamp-ordered sub-stream in one pass."""
    detector = Detector(config, substream)
    records = [detector.process_edge(edge) for edge in edges]
    events = detector.finish()
    return records, events


# ---------------------------------------------------------------------------
# File formats: scores CSV with a config comment header, events JSONL. Each
# record's dataclass fields name its columns or keys and give their types.

@dataclass(frozen=True)
class ScoreRow:
    """One line of a scores CSV (no review text; join on review_id)."""

    review_id: str
    app_id: str
    reviewer_id: str
    tick: int
    substream: SubstreamLabel
    score: float


SCORES_COLUMNS = tuple(f.name for f in fields(ScoreRow))
_SCORE_TYPES = tuple(get_type_hints(ScoreRow)[name] for name in SCORES_COLUMNS)
_EVENT_TYPES = get_type_hints(MicroclusterEvent)
_RECORD_FIELDS = {f.name for f in fields(AnomalyRecord)}

# A record's cells in column order: its own fields, the rest from its edge.
# csv writes a float as its repr and a SubstreamLabel as its value.
_score_cells = attrgetter(*(
    name if name in _RECORD_FIELDS else f"edge.{name}" for name in SCORES_COLUMNS
))


def write_scores_csv(
    records: Iterable[AnomalyRecord], config: DetectorConfig, path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# reviewstream anomaly scores\n")
        fh.write(f"# config {json.dumps(config.to_dict(), sort_keys=True)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_COLUMNS)
        writer.writerows(map(_score_cells, records))


def read_scores_csv(path: str | Path) -> tuple[list[ScoreRow], dict]:
    """Rows converted by ``ScoreRow``'s field types; a malformed row or
    header raises ``ValueError``."""
    rows: list[ScoreRow] = []
    config: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = []
        for line in fh:
            if line.startswith("# config "):
                config = json.loads(line[len("# config "):])
            elif not line.startswith("#"):
                data_lines.append(line)
    reader = csv.reader(data_lines)
    header = next(reader, None)
    if header is None or tuple(header) != SCORES_COLUMNS:
        raise ValueError(f"unexpected scores header in {path}")
    for row in reader:
        if not row:
            continue
        if len(row) != len(SCORES_COLUMNS):
            raise ValueError(f"scores row {row} has {len(row)} cells, not {len(SCORES_COLUMNS)}")
        rows.append(ScoreRow(*[kind(cell) for kind, cell in zip(_SCORE_TYPES, row)]))
    return rows, config


def write_events_jsonl(events: Iterable[MicroclusterEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for event in events:
            fh.write(json.dumps(asdict(event), sort_keys=True))
            fh.write("\n")


def _event_from_json(obj: object) -> MicroclusterEvent:
    """An event whose every field has its annotated type: ``int`` excludes
    ``bool``, ``float`` also takes ``int``; otherwise ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    values = {}
    for name, kind in _EVENT_TYPES.items():
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
        value = obj[name]
        if kind is SubstreamLabel:
            value = SubstreamLabel(value)
        elif type(value) is not kind and not (kind is float and type(value) is int):
            raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return MicroclusterEvent(**values)


def read_events_jsonl(path: str | Path) -> list[MicroclusterEvent]:
    """Events of a JSONL file; a malformed line raises ``ValueError``
    naming its line number."""
    events: list[MicroclusterEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                events.append(_event_from_json(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return events
