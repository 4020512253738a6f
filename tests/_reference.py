"""Independent exact-counter reference implementations for tests.

These re-derive the documented behavior with plain dicts and exact
counts (no sketches), so detector outputs can be checked against an
implementation that shares no code with the package under test. The
pair oracle shares only ``cosine``, the definition of similarity, asks
the provider for one member's vector per call, so that no vector is
shared between members, and replaces the pair search with a check of
every pair. The ingest oracle
is the object parser that the columnar one replaced: one ``ReviewEdge``
per accepted line, ``json.loads`` per JSONL line and a dict of every
header column per CSV row; it shares only the record types, reason codes
and required field names. The per-edge
detector is the earlier ``Detector``, one register per app and one merge
at a time, over the package's count-min sketch, with ``to_tick`` as its
per-edge tick rule: the batch detector must match it bit for bit at any
geometry, collisions included. The per-row
writers are the ones the column writer replaced: ``csv.writer`` for the
scores and CDF CSVs, ``asdict`` and ``json.dumps`` per event,
``str.format`` over ids quoted one at a time for the network CSV, and
``json.dumps`` per review for the canonical review lines; ``csv.writer``
per cell checks the ids the writers quote. The JSON field reader restates
each kind's rule with ``isinstance`` and an explicit bound on the ints a
double holds, and resolves a class's field types on every call.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import itertools
import typing
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from hypothesis import strategies as st

from reviewstream.clusters import cosine
from reviewstream.detector import (
    SCORES_COLUMNS,
    DetectorConfig,
    MicroclusterEvent,
    ScoredStream,
    TimeRegressionError,
)
from reviewstream.ingest import (
    REASON_DUPLICATE,
    REASON_MISSING,
    REASON_RANGE,
    REASON_SYNTAX,
    REQUIRED_APP_FIELDS,
    REQUIRED_REVIEW_FIELDS,
    AppRecord,
    BeforeOriginError,
    LineError,
    ReviewEdge,
    ReviewTable,
)
from reviewstream.partition import SubstreamLabel
from reviewstream.sketch import CountMinSketch
from reviewstream.stats import SharedReviewerGraph, ecdf

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


def all_pairs_similarity(review_ids, texts, provider, tau: float):
    """Near-identical pairs by scoring every unordered pair of reviews
    with text, given as columns of ids and texts: (pairs as (id_a, id_b,
    similarity) sorted by similarity desc then ids asc, flagged ids,
    reviews with text, reviews without)."""
    with_text = [(r, t) for r, t in zip(review_ids, texts) if t is not None]
    vectors = [provider.vectors([r], [t])[0] for r, t in with_text]
    pairs = []
    flagged = set()
    for i in range(len(with_text)):
        for j in range(i + 1, len(with_text)):
            sim = cosine(vectors[i], vectors[j])
            if sim >= tau:
                id_a, id_b = sorted((with_text[i][0], with_text[j][0]))
                pairs.append((id_a, id_b, sim))
                flagged.update((id_a, id_b))
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    return pairs, frozenset(flagged), len(with_text), len(texts) - len(with_text)


def review_to_line(edge: ReviewEdge) -> str:
    """Canonical JSON line of a review; ``text`` omitted when absent."""
    obj = dict(vars(edge))
    if edge.text is None:
        del obj["text"]
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def table_edges(table: ReviewTable, rows: Iterable[int] | None = None) -> list[ReviewEdge]:
    """The given rows of a table, or all, as ``ReviewEdge``s."""
    rows = range(len(table)) if rows is None else map(int, rows)
    reviewer, app = table.reviewer.tolist(), table.app.tolist()
    timestamp, score = table.timestamp.tolist(), table.score.tolist()
    return [ReviewEdge(table.review_id[i], table.reviewer_ids[reviewer[i]], table.app_ids[app[i]],
                       timestamp[i], score[i], table.text[i]) for i in rows]


def graph_rows(graph: SharedReviewerGraph) -> list[tuple[str, str, int]]:
    """The graph's (app_a, app_b, weight) rows, zipped from its columns."""
    return list(zip(map(graph.apps.__getitem__, graph.app_a.tolist()),
                    map(graph.apps.__getitem__, graph.app_b.tolist()), graph.weight.tolist()))


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


def _as_int(value: object) -> int:
    """Read a JSON number as an int; bools and non-integral floats raise
    ValueError, as ``_csv_int`` does for CSV text that is not an integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def _csv_int(cell: str) -> int:
    """Read a CSV cell of ASCII digits after an optional minus sign; ``int()``
    alone would also take ``1_0``, ``+2``, `` 7`` and non-ASCII digits."""
    if not (cell.isascii() and cell.lstrip("-").isdigit()):
        raise ValueError(f"not an integer: {cell!r}")
    return int(cell)


def _review_from_record(
    record: object, as_int: Callable[[object], int]
) -> tuple[ReviewEdge | None, str | None]:
    """One review's field checks, shared by both formats.

    ``record`` is a JSON object, or a CSV row's cells with empty required
    cells left out; ``as_int`` reads the format's integers. The order of
    the checks fixes each line's reason.
    """
    if not isinstance(record, dict):
        return None, REASON_SYNTAX
    for field in REQUIRED_REVIEW_FIELDS:
        if record.get(field) is None:
            return None, REASON_MISSING
    review_id = record["review_id"]
    reviewer_id = record["reviewer_id"]
    app_id = record["app_id"]
    if not (isinstance(review_id, str) and isinstance(reviewer_id, str) and isinstance(app_id, str)):
        return None, REASON_SYNTAX
    try:
        timestamp = as_int(record["timestamp"])
        score = as_int(record["score"])
    except ValueError:
        return None, REASON_SYNTAX
    text = record.get("text")
    if text is not None and not isinstance(text, str):
        return None, REASON_SYNTAX
    try:  # a lone surrogate, which a JSON escape can give, has no UTF-8 form
        for field in (review_id, reviewer_id, app_id, text or ""):
            field.encode("utf-8")
    except UnicodeEncodeError:
        return None, REASON_SYNTAX
    if not review_id or not reviewer_id or not app_id:
        return None, REASON_MISSING
    if not 0 <= timestamp <= _INT64_MAX or not 1 <= score <= 5:
        return None, REASON_RANGE
    return ReviewEdge(review_id, reviewer_id, app_id, timestamp, score, text), None


def _jsonl_records(lines: Iterable[str]) -> Iterator[tuple[int, str, object]]:
    """Yield (line_number, raw, value) for each non-blank line; a line that
    is not JSON, nests past the recursion limit or holds an integer of
    more than 4300 digits (a plain ``ValueError``) yields None, which no
    record check accepts."""
    for lineno, line in enumerate(lines, 1):
        raw = line.rstrip("\n")
        if not raw.strip():
            continue
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):
            value = None
        yield lineno, raw, value


def _csv_records(
    lines: Iterable[str], required: tuple[str, ...]
) -> Iterator[tuple[int, list[str], dict[str, str]]]:
    """Yield (line_number, row, cells) for each data row of a CSV stream.

    The first non-blank row is the header, and ``cells`` maps its names
    to the row's cells; a header that names a column twice raises
    ``ValueError``. A required cell that is empty or past the end of the
    row is left out, so it reads as missing. Blank rows are skipped. RFC-4180 quoting
    (including embedded newlines) is handled by the csv module; line
    numbers refer to the physical line on which a record ends.
    """
    reader = csv.reader(lines)
    columns: dict[str, int] | None = None
    for row in reader:
        if not row:
            continue
        if columns is None:
            columns = {name: i for i, name in enumerate(row)}
            if len(columns) < len(row):
                twice = next(name for i, name in enumerate(row) if name in row[:i])
                raise ValueError(f"header names column {twice!r} twice")
            continue
        cells = {
            name: row[i] for name, i in columns.items()
            if i < len(row) and (row[i] or name not in required)
        }
        yield reader.line_num, row, cells


def _raw(line: str | list[str]) -> str:
    """A rejected line as reported: JSONL as read, a CSV row re-joined."""
    if isinstance(line, str):
        return line
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(line)
    return buf.getvalue()


def parse_reviews(
    lines: Iterable[str], format: str = "jsonl"
) -> tuple[list[ReviewEdge], list[LineError]]:
    """Parse review records from text lines.

    Valid records are emitted in input order. Invalid records become
    LineErrors (reasons: syntax, range, missing_field, duplicate) and
    never abort the parse. A repeated review_id keeps the first
    occurrence, mirroring the catalog's duplicate handling.
    """
    if format == "jsonl":
        records, as_int = _jsonl_records(lines), _as_int
    elif format == "csv":
        records, as_int = _csv_records(lines, REQUIRED_REVIEW_FIELDS), _csv_int
    else:
        raise ValueError(f"unknown review format {format!r}")
    edges: list[ReviewEdge] = []
    errors: list[LineError] = []
    seen: set[str] = set()
    for lineno, line, record in records:
        edge, reason = _review_from_record(record, as_int)
        if edge is None:
            errors.append(LineError(lineno, reason, _raw(line)))
        elif edge.review_id in seen:
            errors.append(LineError(lineno, REASON_DUPLICATE, _raw(line)))
        else:
            seen.add(edge.review_id)
            edges.append(edge)
    return edges, errors


def parse_apps(lines: Iterable[str]) -> tuple[dict[str, AppRecord], list[LineError]]:
    """Parse an app catalog from CSV lines.

    Header: app_id,overall_rating,install_count,name (the last two are
    optional columns). The catalog maps each app_id to its record.
    Duplicate app_ids keep the first record and report a
    LineError(duplicate); ratings outside [1, 5] are rejected.
    """
    catalog: dict[str, AppRecord] = {}
    errors: list[LineError] = []
    for lineno, row, cells in _csv_records(lines, REQUIRED_APP_FIELDS):
        if any(field not in cells for field in REQUIRED_APP_FIELDS):
            errors.append(LineError(lineno, REASON_MISSING, _raw(row)))
            continue
        try:
            rating = float(cells["overall_rating"])
        except ValueError:
            errors.append(LineError(lineno, REASON_SYNTAX, _raw(row)))
            continue
        if not 1.0 <= rating <= 5.0:
            errors.append(LineError(lineno, REASON_RANGE, _raw(row)))
            continue
        install_count: int | None = None
        if cells.get("install_count"):
            try:
                install_count = _csv_int(cells["install_count"])
            except ValueError:
                errors.append(LineError(lineno, REASON_SYNTAX, _raw(row)))
                continue
            if install_count < 0:
                errors.append(LineError(lineno, REASON_RANGE, _raw(row)))
                continue
        app_id = cells["app_id"]
        if app_id in catalog:
            errors.append(LineError(lineno, REASON_DUPLICATE, _raw(row)))
            continue
        catalog[app_id] = AppRecord(app_id, rating, install_count, cells.get("name") or None)
    return catalog, errors


# ---------------------------------------------------------------------------
# JSON fields: each kind's rule restated, the field types resolved per call.

# The ints that round to a finite double: below the midpoint between the
# largest double, 2**1024 - 2**971, and 2**1024, where rounding goes to even.
_FLOAT_INT_BOUND = 2**1024 - 2**970


def json_value(name: str, kind, value):
    """``value`` if it is a JSON value of ``kind`` (an Enum's member for an
    Enum's value), else ``ValueError``."""
    if typing.get_origin(kind) is None and issubclass(kind, Enum):
        for member in kind:
            if type(value) is type(member.value) and value == member.value:
                return member
        raise ValueError(f"{name}: not a {kind.__name__} value: {value!r}")
    if isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    elif kind is float:
        ok = (isinstance(value, int) and abs(value) < _FLOAT_INT_BOUND
              or isinstance(value, float) and value == value and abs(value) != math.inf)
    elif kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, list)
    if not ok:
        raise ValueError(f"{name}: not of {kind}: {value!r}")
    return value


# Decoded JSON values for the readers' properties: bools, ints past int64
# and float64, NaN and infinities, None, strings, sub-stream labels, and
# lists and objects of these.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2**63, -2**63 - 1, 2**64 - 2, _FLOAT_INT_BOUND - 1, _FLOAT_INT_BOUND,
                     -_FLOAT_INT_BOUND, 2**1024, 10**400]),
    st.integers(2**1023, 2**1100).map(lambda n: n if n % 2 else -n),
    st.floats(), st.text(max_size=4),
    st.sampled_from([label.value for label in SubstreamLabel] + ["Boost", "BOOST", ""]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def json_fields(cls, obj):
    """``obj``'s values by ``json_value`` if it is a dict of ``cls``'s fields
    holding every field without a default, else ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"not an object: {obj!r}")
    hints = typing.get_type_hints(cls)
    declared = {f.name: f for f in dataclasses.fields(cls)}
    if not set(obj) <= set(declared):
        raise ValueError(f"unknown keys: {set(obj) - set(declared)}")
    for name, f in declared.items():
        has_default = (f.default is not dataclasses.MISSING
                       or f.default_factory is not dataclasses.MISSING)
        if name not in obj and not has_default:
            raise ValueError(f"missing {name}")
    return {name: json_value(name, hints[name], value) for name, value in obj.items()}


# ---------------------------------------------------------------------------
# Per-row writers: the text of each output, one row at a time.

def scores_csv_text(scored: ScoredStream, config: DetectorConfig) -> str:
    table, row = scored.table, scored.row
    buf = io.StringIO()
    buf.write("# reviewstream anomaly scores\n")
    buf.write(f"# config {json.dumps(config.to_dict(), sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORES_COLUMNS)
    writer.writerows(zip(
        map(table.review_id.__getitem__, row.tolist()),
        map(table.app_ids.__getitem__, table.app[row].tolist()),
        map(table.reviewer_ids.__getitem__, table.reviewer[row].tolist()),
        scored.tick.tolist(),
        map(tuple(SubstreamLabel).__getitem__, scored.substream.tolist()),
        scored.score.tolist(),
    ))
    return buf.getvalue()


def events_jsonl_text(events: Iterable[MicroclusterEvent]) -> str:
    return "".join(json.dumps(asdict(event), sort_keys=True) + "\n" for event in events)


def ecdf_csv_text(values: list[float]) -> str:
    points = ecdf(values) if values else None
    rows = () if points is None else (
        (repr(v), repr(f)) for v, f in zip(points.values.tolist(), points.fractions.tolist()))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value", "fraction"])
    writer.writerows(rows)
    return buf.getvalue()


def network_csv_text(graph: SharedReviewerGraph) -> str:
    buf = io.StringIO()
    write = csv.writer(buf, lineterminator="\n").writerow
    ends = list(itertools.accumulate(write((app, "")) for app in graph.apps))
    text = buf.getvalue()
    quoted = [text[start:end - 2] for start, end in zip([0, *ends], ends)]
    lines = map("{},{},{}\n".format, map(quoted.__getitem__, graph.app_a.tolist()),
                map(quoted.__getitem__, graph.app_b.tolist()), graph.weight.tolist())
    return "app_a,app_b,weight\n" + "".join(lines)


def quoted_cells(cells: Iterable[str]) -> list[str]:
    """Each cell as ``csv.writer`` writes it in a row of its own, before a
    second cell."""
    buf = io.StringIO()
    write = csv.writer(buf, lineterminator="\n").writerow
    out = []
    for cell in cells:
        buf.seek(0)
        buf.truncate()
        write((cell, "x"))
        out.append(buf.getvalue()[:-3])
    return out


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


def to_tick(timestamp: int, origin: int, period: int) -> int:
    """Map a timestamp to its 1-based detection tick.

    Tick n covers (origin + (n-1)*period, origin + n*period]; the origin
    itself maps to tick 1. Timestamps before the origin raise
    BeforeOriginError.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    delta = timestamp - origin
    if delta < 0:
        raise BeforeOriginError(
            f"timestamp {timestamp} precedes origin {origin}"
        )
    return max(1, -(-delta // period))


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
