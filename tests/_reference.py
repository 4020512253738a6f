"""Independent exact-counter reference implementations for tests.

These re-derive the documented behavior with plain dicts and exact
counts (no sketches), so detector outputs can be checked against an
implementation that shares no code with the package under test. The
pair oracle shares only ``cosine``, the definition of similarity, and
replaces the pair search with a check of every pair. The ingest oracle
is the earlier parser, with its own JSONL and CSV loops, and shares only
the record types, reason codes and required field names. The per-edge
detector is the earlier ``Detector``, one register per app and one merge
at a time, over the package's count-min sketch: the batch detector must
match it bit for bit at any geometry, collisions included.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from reviewstream.clusters import cosine
from reviewstream.detector import (
    DetectorConfig,
    MicroclusterEvent,
    TimeRegressionError,
)
from reviewstream.ingest import (
    REASON_DUPLICATE,
    REASON_MISSING,
    REASON_RANGE,
    REASON_SYNTAX,
    REQUIRED_APP_FIELDS,
    REQUIRED_REVIEW_FIELDS,
    REVIEW_FORMATS,
    AppRecord,
    LineError,
    ReviewEdge,
    to_tick,
)
from reviewstream.partition import SubstreamLabel
from reviewstream.sketch import CountMinSketch

_INT64_MAX = 2**63 - 1


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


def _as_int(value: object) -> int | None:
    """Coerce a JSON number to int; reject bools and non-integral floats."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _validate_review(
    review_id: str,
    reviewer_id: str,
    app_id: str,
    timestamp: int,
    score: int,
    text: str | None,
) -> tuple[ReviewEdge | None, str | None]:
    if not review_id or not reviewer_id or not app_id:
        return None, REASON_MISSING
    if timestamp < 0 or timestamp > _INT64_MAX:
        return None, REASON_RANGE
    if score < 1 or score > 5:
        return None, REASON_RANGE
    return ReviewEdge(review_id, reviewer_id, app_id, timestamp, score, text), None


def _review_from_json(obj: object) -> tuple[ReviewEdge | None, str | None]:
    if not isinstance(obj, dict):
        return None, REASON_SYNTAX
    for field in REQUIRED_REVIEW_FIELDS:
        if obj.get(field) is None:
            return None, REASON_MISSING
    review_id = obj["review_id"]
    reviewer_id = obj["reviewer_id"]
    app_id = obj["app_id"]
    if not (isinstance(review_id, str) and isinstance(reviewer_id, str) and isinstance(app_id, str)):
        return None, REASON_SYNTAX
    timestamp = _as_int(obj["timestamp"])
    score = _as_int(obj["score"])
    if timestamp is None or score is None:
        return None, REASON_SYNTAX
    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        return None, REASON_SYNTAX
    return _validate_review(review_id, reviewer_id, app_id, timestamp, score, text)


def _csv_int(text: str) -> int:
    """A CSV integer: an optional minus sign, then one or more of 0-9."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _csv_join(row: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    return buf.getvalue()


def _iter_csv(lines: Iterable[str]) -> Iterator[tuple[int, list[str] | None, list[str]]]:
    """Yield (line_number, header_or_None, row) triples for a CSV stream.

    The first yielded triple carries the header; subsequent ones carry
    data rows. Blank rows are skipped. RFC-4180 quoting (including
    embedded newlines) is handled by the csv module; line numbers refer
    to the physical line on which a record ends.
    """
    reader = csv.reader(lines)
    header: list[str] | None = None
    for row in reader:
        if not row:
            continue
        if header is None:
            header = row
            yield reader.line_num, header, row
        else:
            yield reader.line_num, None, row


def parse_reviews(
    lines: Iterable[str], format: str = "jsonl"
) -> tuple[list[ReviewEdge], list[LineError]]:
    """Parse review records from text lines.

    Valid records are emitted in input order. Invalid records become
    LineErrors (reasons: syntax, range, missing_field, duplicate) and
    never abort the parse. A repeated review_id keeps the first
    occurrence, mirroring the catalog's duplicate handling.
    """
    if format not in REVIEW_FORMATS:
        raise ValueError(f"unknown review format {format!r}")
    edges: list[ReviewEdge] = []
    errors: list[LineError] = []
    seen: set[str] = set()

    def emit(edge: ReviewEdge | None, reason: str | None, line: int, raw: str) -> None:
        if edge is None:
            errors.append(LineError(line, reason or REASON_SYNTAX, raw))
        elif edge.review_id in seen:
            errors.append(LineError(line, REASON_DUPLICATE, raw))
        else:
            seen.add(edge.review_id)
            edges.append(edge)

    if format == "jsonl":
        for lineno, line in enumerate(lines, 1):
            raw = line.rstrip("\n")
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                errors.append(LineError(lineno, REASON_SYNTAX, raw))
                continue
            edge, reason = _review_from_json(obj)
            emit(edge, reason, lineno, raw)
        return edges, errors

    columns: dict[str, int] = {}
    header_ok = False
    for lineno, header, row in _iter_csv(lines):
        if header is not None:
            columns = {name: i for i, name in enumerate(header)}
            header_ok = all(f in columns for f in REQUIRED_REVIEW_FIELDS)
            continue
        raw = _csv_join(row)
        if not header_ok:
            errors.append(LineError(lineno, REASON_MISSING, raw))
            continue
        values: dict[str, str | None] = {}
        short = False
        for field in REQUIRED_REVIEW_FIELDS:
            idx = columns[field]
            if idx >= len(row) or row[idx] == "":
                short = True
                break
            values[field] = row[idx]
        if short:
            errors.append(LineError(lineno, REASON_MISSING, raw))
            continue
        try:
            timestamp = _csv_int(values["timestamp"])
            score = _csv_int(values["score"])
        except ValueError:
            errors.append(LineError(lineno, REASON_SYNTAX, raw))
            continue
        text: str | None = None
        if "text" in columns and columns["text"] < len(row):
            text = row[columns["text"]]
        edge, reason = _validate_review(
            values["review_id"], values["reviewer_id"], values["app_id"],
            timestamp, score, text,
        )
        emit(edge, reason, lineno, raw)
    return edges, errors


def parse_apps(lines: Iterable[str]) -> tuple[dict[str, AppRecord], list[LineError]]:
    """Parse an app catalog from CSV lines.

    Header: app_id,overall_rating,install_count,name (the last two are
    optional columns). Duplicate app_ids keep the first record and report
    a LineError(duplicate); ratings outside [1, 5] are rejected.
    """
    catalog: dict[str, AppRecord] = {}
    errors: list[LineError] = []
    columns: dict[str, int] = {}
    header_ok = False
    for lineno, header, row in _iter_csv(lines):
        if header is not None:
            columns = {name: i for i, name in enumerate(header)}
            header_ok = all(f in columns for f in REQUIRED_APP_FIELDS)
            continue
        raw = _csv_join(row)
        if not header_ok:
            errors.append(LineError(lineno, REASON_MISSING, raw))
            continue

        def cell(name: str) -> str | None:
            idx = columns.get(name)
            if idx is None or idx >= len(row) or row[idx] == "":
                return None
            return row[idx]

        app_id = cell("app_id")
        rating_raw = cell("overall_rating")
        if app_id is None or rating_raw is None:
            errors.append(LineError(lineno, REASON_MISSING, raw))
            continue
        try:
            rating = float(rating_raw)
        except ValueError:
            errors.append(LineError(lineno, REASON_SYNTAX, raw))
            continue
        if not 1.0 <= rating <= 5.0:
            errors.append(LineError(lineno, REASON_RANGE, raw))
            continue
        install_raw = cell("install_count")
        install_count: int | None = None
        if install_raw is not None:
            try:
                install_count = _csv_int(install_raw)
            except ValueError:
                errors.append(LineError(lineno, REASON_SYNTAX, raw))
                continue
            if install_count < 0:
                errors.append(LineError(lineno, REASON_RANGE, raw))
                continue
        if app_id in catalog:
            errors.append(LineError(lineno, REASON_DUPLICATE, raw))
            continue
        catalog[app_id] = AppRecord(app_id, rating, install_count, cell("name"))
    return catalog, errors


# ---------------------------------------------------------------------------
# The per-edge detector: one edge at a time, a register per app, and a
# close that merges apps one by one. The batch core in
# ``reviewstream.detector`` must reproduce its scores, ticks, events and
# history bit for bit.

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


def _insert(sketch: CountMinSketch, slots: tuple[int, ...], weight: float) -> None:
    """Add ``weight`` to the counter at each row's slot."""
    counters = sketch.counters
    for row, col in enumerate(slots):
        counters[row, col] += weight


def _estimate(sketch: CountMinSketch, slots: tuple[int, ...]) -> float:
    """The least of the counters at each row's slot."""
    counters = sketch.counters
    return float(min(counters[row, col] for row, col in enumerate(slots)))


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
        return _estimate(self._history, slots)

    def process_edge(self, edge: ReviewEdge) -> tuple[ReviewEdge, SubstreamLabel, int, float]:
        """The edge scored: ``(edge, substream, tick, score)``."""
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
        _insert(self._current, slots, 1.0)
        cur = _estimate(self._current, slots)
        total = _estimate(self._history, slots) + cur
        if tick <= 1 or total <= 0.0:
            score = 0.0
        else:
            score = (cur - total / tick) ** 2 * (tick * tick) / (total * (tick - 1))
        register.last_score = score
        return edge, self.substream, tick, score

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
            self._current.counters[:] = 0.0
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
                expected = _estimate(self._history, slots) / (closing - 1)
                _insert(self._history, slots, expected)
            else:
                _insert(self._history, slots, float(register.cur_raw))
            register.prev_tick = closing
            register.prev_raw = register.cur_raw
        self._touched = []
