"""Line-oriented ingestion of review logs and app catalogs.

Reviews arrive as JSONL (one object per line) or CSV with the same field
names; app catalogs are CSV. Parsing is single-pass and never aborts on a
bad record: every rejected line is reported as a :class:`LineError` with
its line number and a reason, so dataset accounting always closes.

Timestamps are mapped onto discrete detection ticks with :func:`to_tick`.
Tick ``n`` covers the half-open window ``(origin + (n-1)*period,
origin + n*period]``; a timestamp equal to ``origin`` maps to tick 1 so
that every record lands in some tick.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

REVIEW_FORMATS = ("jsonl", "csv")

# LineError reasons
REASON_SYNTAX = "syntax"
REASON_RANGE = "range"
REASON_MISSING = "missing_field"
REASON_DUPLICATE = "duplicate"

_INT64_MAX = 2**63 - 1


class BeforeOriginError(ValueError):
    """Raised when a timestamp precedes the configured stream origin."""


@dataclass(frozen=True)
class ReviewEdge:
    """One review event: a reviewer rates an app at a point in time."""

    review_id: str
    reviewer_id: str
    app_id: str
    timestamp: int  # seconds since epoch, in [0, 2**63 - 1]
    score: int  # star rating in 1..5
    text: str | None = None


@dataclass(frozen=True)
class AppRecord:
    """Catalog metadata for one app; ``overall_rating`` drives the
    boost/sink split."""

    app_id: str
    overall_rating: float  # in [1.0, 5.0]
    install_count: int | None = None
    name: str | None = None


# Every input record must give the fields its dataclass has no default for.
REQUIRED_REVIEW_FIELDS = tuple(f.name for f in fields(ReviewEdge) if f.default is MISSING)
REQUIRED_APP_FIELDS = tuple(f.name for f in fields(AppRecord) if f.default is MISSING)


@dataclass(frozen=True)
class LineError:
    """A rejected input line: 1-based position, reason code, raw content."""

    line: int
    reason: str
    raw: str


class AppCatalog:
    """App records keyed by app_id with O(1) lookup and no duplicates."""

    def __init__(self, records: Iterable[AppRecord] = ()) -> None:
        self._by_id: dict[str, AppRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: AppRecord) -> None:
        if record.app_id in self._by_id:
            raise ValueError(f"duplicate app_id {record.app_id!r}")
        self._by_id[record.app_id] = record

    def get(self, app_id: str) -> AppRecord | None:
        return self._by_id.get(app_id)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[AppRecord]:
        return iter(self._by_id.values())


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
            timestamp = int(values["timestamp"])
            score = int(values["score"])
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


def parse_apps(lines: Iterable[str]) -> tuple[AppCatalog, list[LineError]]:
    """Parse an app catalog from CSV lines.

    Header: app_id,overall_rating,install_count,name (the last two are
    optional columns). Duplicate app_ids keep the first record and report
    a LineError(duplicate); ratings outside [1, 5] are rejected.
    """
    catalog = AppCatalog()
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
                install_count = int(install_raw)
            except ValueError:
                errors.append(LineError(lineno, REASON_SYNTAX, raw))
                continue
            if install_count < 0:
                errors.append(LineError(lineno, REASON_RANGE, raw))
                continue
        if app_id in catalog:
            errors.append(LineError(lineno, REASON_DUPLICATE, raw))
            continue
        catalog.add(AppRecord(app_id, rating, install_count, cell("name")))
    return catalog, errors


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


def review_to_dict(edge: ReviewEdge) -> dict:
    """Canonical JSON form of a review; ``text`` omitted when absent."""
    # A copy of vars(), not asdict: asdict deep-copies every field, which
    # costs more than encoding the line, once per review.
    obj = dict(vars(edge))
    if edge.text is None:
        del obj["text"]
    return obj


def review_to_line(edge: ReviewEdge) -> str:
    return json.dumps(review_to_dict(edge), ensure_ascii=False, sort_keys=True)


def write_reviews_jsonl(edges: Iterable[ReviewEdge], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for edge in edges:
            fh.write(review_to_line(edge))
            fh.write("\n")


def read_reviews_jsonl(path: str | Path) -> tuple[list[ReviewEdge], list[LineError]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_reviews(fh, format="jsonl")


def write_app_catalog_csv(catalog: AppCatalog, path: str | Path) -> None:
    columns = [f.name for f in fields(AppRecord)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        # csv writes None as an empty cell and a float as its repr.
        writer.writerows(map(attrgetter(*columns), catalog))


def read_app_catalog_csv(path: str | Path) -> tuple[AppCatalog, list[LineError]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_apps(fh)


def write_line_errors(
    errors: Iterable[LineError], path: str | Path, source: str | None = None
) -> None:
    """Append the sidecar JSONL error report: each ``LineError``'s fields,
    plus ``file`` when ``source`` is given."""
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        for err in errors:
            obj = asdict(err)
            if source is not None:
                obj["file"] = source
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
