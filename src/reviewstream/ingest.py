"""Line-oriented ingestion of review logs and app catalogs.

Reviews arrive as JSONL (one object per line) or CSV with the same field
names; app catalogs are CSV. Parsing is single-pass and never aborts on a
bad record: every rejected line is reported as a :class:`LineError` with
its line number and a reason, so dataset accounting always closes.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from enum import EnumMeta
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_type_hints

import numpy as np

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


REVIEW_FIELDS = tuple(f.name for f in fields(ReviewEdge))
APP_FIELDS = tuple(f.name for f in fields(AppRecord))
# Every input record must give the fields its dataclass has no default for.
REQUIRED_REVIEW_FIELDS = tuple(f.name for f in fields(ReviewEdge) if f.default is MISSING)
REQUIRED_APP_FIELDS = tuple(f.name for f in fields(AppRecord) if f.default is MISSING)


@dataclass(frozen=True, eq=False)
class ReviewTable:
    """Reviews as columns: row ``i`` is review ``review_id[i]``, written by
    ``reviewer_ids[reviewer[i]]`` on ``app_ids[app[i]]`` at ``timestamp[i]``
    with ``score[i]`` stars and ``text[i]``. The id lists hold each id
    once, in order of first appearance."""

    review_id: list[str]
    reviewer: np.ndarray  # int64 codes into reviewer_ids
    app: np.ndarray  # int64 codes into app_ids
    timestamp: np.ndarray  # int64
    score: np.ndarray  # int8
    text: list[str | None]
    reviewer_ids: list[str]
    app_ids: list[str]

    def __len__(self) -> int:
        return len(self.review_id)

    def __repr__(self) -> str:
        return (f"ReviewTable({len(self)} reviews, {len(self.reviewer_ids)} reviewers, "
                f"{len(self.app_ids)} apps)")

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple]) -> "ReviewTable":
        """The table of field tuples in ``ReviewEdge`` order. Each reviewer
        and app id is coded as it arrives, so a repeat of an id is dropped
        at once and no row outlives the loop."""
        review_id, reviewer, app, timestamp, score, text = [], [], [], [], [], []
        reviewer_code: dict[str, int] = {}
        app_code: dict[str, int] = {}
        for row in rows:
            review_id.append(row[0])
            reviewer.append(reviewer_code.setdefault(row[1], len(reviewer_code)))
            app.append(app_code.setdefault(row[2], len(app_code)))
            timestamp.append(row[3])
            score.append(row[4])
            text.append(row[5])
        return cls(review_id, np.array(reviewer, np.int64), np.array(app, np.int64),
                   np.array(timestamp, np.int64), np.array(score, np.int8), text,
                   list(reviewer_code), list(app_code))

    @classmethod
    def from_edges(cls, edges: Iterable[ReviewEdge]) -> "ReviewTable":
        return cls._from_rows(map(attrgetter(*REVIEW_FIELDS), edges))

    def rows(self, order: Iterable[int] | None = None) -> "ReviewRows":
        """The given rows, or all in table order, as a stream."""
        order = np.arange(len(self)) if order is None else order
        return ReviewRows(self, np.asarray(order, np.int64))


@dataclass(frozen=True, eq=False)
class ReviewRows:
    """A review stream: rows ``row`` of ``table``, in stream order."""

    table: ReviewTable
    row: np.ndarray  # int64 row numbers

    def __len__(self) -> int:
        return len(self.row)


@dataclass(frozen=True)
class LineError:
    """A rejected input line: 1-based position, reason code, raw content."""

    line: int
    reason: str
    raw: str


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


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}
_type_hints = functools.cache(get_type_hints)  # each class's field types, resolved once


def json_value(name: str, kind: type, value: object) -> object:
    """``value``, a decoded JSON value of the field ``name``, if it is of type
    ``kind``: an int but not a bool for ``int``, a finite int or float for
    ``float``, a str for ``str``, a value of an ``Enum`` (returned as its
    member), a list for any other kind; otherwise ``ValueError``."""
    enum = isinstance(kind, EnumMeta)
    try:
        if enum:
            return kind(value)
        if kind is float:
            ok = type(value) in (int, float) and math.isfinite(value)
        else:
            ok = type(value) is (kind if kind in _KINDS else list)
    except (ValueError, OverflowError):  # no enum value; an int too large for a float
        ok = False
    if not ok:
        what = f"one of {[m.value for m in kind]}" if enum else _KINDS.get(kind, "a list")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def json_fields(cls, obj: object) -> dict:
    """``obj``'s values, each checked by ``json_value``, if it is a JSON object
    of the dataclass ``cls``'s fields that gives each field without a default;
    otherwise ``ValueError``, naming an unknown key, a missing field or a bad value."""
    if type(obj) is not dict:
        raise ValueError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    kinds = _type_hints(cls)
    if not obj.keys() <= kinds.keys():
        raise ValueError(f"unknown {cls.__name__} key {next(k for k in obj if k not in kinds)!r}")
    for f in fields(cls) if len(obj) < len(kinds) else ():  # a full object lacks none
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{cls.__name__} lacks the field {f.name!r}")
    return {name: json_value(name, kinds[name], value) for name, value in obj.items()}


def _review_from_record(
    record: object, as_int: Callable[[object], int]
) -> tuple[tuple | None, str | None]:
    """One review's field checks, shared by both formats: its fields in
    ``ReviewEdge`` order, or the reason it is rejected.

    ``record`` is a JSON object, or a CSV row's cells by field name, None
    where ``_csv_records`` finds none; ``as_int`` reads the format's
    integers, where they are not ints already. Each field is read once.
    The order of the checks fixes each line's reason.
    """
    if not isinstance(record, dict):
        return None, REASON_SYNTAX
    get = record.get
    review_id, reviewer_id, app_id = get("review_id"), get("reviewer_id"), get("app_id")
    timestamp, score, text = get("timestamp"), get("score"), get("text")
    if review_id is None or reviewer_id is None or app_id is None or timestamp is None \
            or score is None:  # REQUIRED_REVIEW_FIELDS
        return None, REASON_MISSING
    if not (isinstance(review_id, str) and isinstance(reviewer_id, str) and isinstance(app_id, str)):
        return None, REASON_SYNTAX
    try:
        timestamp = timestamp if type(timestamp) is int else as_int(timestamp)
        score = score if type(score) is int else as_int(score)
    except ValueError:
        return None, REASON_SYNTAX
    if text is not None and not isinstance(text, str):
        return None, REASON_SYNTAX
    joined = review_id + reviewer_id + app_id + (text or "")
    if not joined.isascii() and joined != joined.encode("utf-8", "replace").decode():
        return None, REASON_SYNTAX  # a lone surrogate: a JSON escape can give one, UTF-8 cannot
    if not review_id or not reviewer_id or not app_id:
        return None, REASON_MISSING
    if not 0 <= timestamp <= _INT64_MAX or not 1 <= score <= 5:
        return None, REASON_RANGE
    return (review_id, reviewer_id, app_id, timestamp, score, text), None


# The scanner that json.loads runs, called without raw_decode's wrapper.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def _jsonl_records(lines: Iterable[str]) -> Iterator[tuple[int, str, object]]:
    """Yield (line_number, raw, value) for each non-blank line: what
    ``json.loads`` returns for it, from one scan of the line less the JSON
    whitespace around it, or None where it fails (also for nesting past the
    recursion limit, or an integer of more than 4300 digits), which no
    record check accepts. A line that does not scan is blank if
    ``str.strip`` empties it."""
    for lineno, line in enumerate(lines, 1):
        raw = line.rstrip("\n")
        text = raw.strip(" \t\n\r")
        try:
            value, end = _scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):  # json.loads fails too
            if not raw.strip():
                continue
            value, end = None, len(text)
        yield lineno, raw, value if end == len(text) else None


def check_csv_header(header: list[str]) -> None:
    """Raise ``ValueError`` naming the first column a header names twice."""
    if len(set(header)) < len(header):
        twice = next(name for i, name in enumerate(header) if name in header[:i])
        raise ValueError(f"header names column {twice!r} twice")


def _csv_rows(lines: Iterable[str], first: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for each row ``csv.reader`` reads, numbering
    lines from ``first``. A ``csv.Error``, such as a field longer than
    ``csv.field_size_limit()``, raises ``ValueError`` naming its line: the
    reader would go on at the next physical line, perhaps inside a field."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield first - 1 + reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"line {first - 1 + reader.line_num}: {exc}") from None


def _csv_records(
    lines: Iterable[str], names: tuple[str, ...], required: tuple[str, ...]
) -> Iterator[tuple[int, list[str], list[str | None]]]:
    """Yield (line_number, row, cells) for each data row of a CSV stream.

    The first non-blank row is the header; a header that names a column
    twice, or a row ``_csv_rows`` cannot read, raises ``ValueError``.
    ``cells`` holds the row's cell for each of ``names``, at the position
    the header gave it, or None where the header lacks the column, the row
    ends before it, or a required cell is empty. Blank rows are skipped.
    RFC-4180 quoting (including embedded newlines) is handled by the csv
    module; line numbers refer to the physical line on which a record ends.
    """
    positions: list[tuple[int, bool]] | None = None
    for lineno, row in _csv_rows(lines, 1):
        if not row:
            continue
        if positions is None:
            check_csv_header(row)
            # A column the header lacks lies past the end of every row.
            positions = [(row.index(name) if name in row else math.inf, name in required)
                         for name in names]
            continue
        width = len(row)
        yield lineno, row, [row[i] if i < width and (row[i] or not needed) else None
                            for i, needed in positions]


def csv_after_comments(lines: Iterable[str]) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The ``#`` lines before a CSV's header, and (line_number, row) for
    the header and every later row, read by ``_csv_rows``. Only the
    leading lines are comments: a later line that starts with ``#`` is
    data, such as the rest of a quoted cell that holds a newline."""
    lines = iter(lines)
    comments: list[str] = []
    for line in lines:
        if not line.startswith("#"):
            return comments, _csv_rows(itertools.chain([line], lines), len(comments) + 1)
        comments.append(line)
    return comments, iter(())


def _raw(line: str | list[str]) -> str:
    """A rejected line as reported: JSONL as read, a CSV row re-joined."""
    if isinstance(line, str):
        return line
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(line)
    return buf.getvalue()


def parse_reviews(
    lines: Iterable[str], format: str = "jsonl"
) -> tuple[ReviewTable, list[LineError]]:
    """Parse review records from text lines into a ``ReviewTable``.

    Valid records become the table's rows in input order. Invalid records
    become LineErrors (reasons: syntax, range, missing_field, duplicate)
    and never abort the parse. A repeated review_id keeps the first
    occurrence, mirroring the catalog's duplicate handling.
    """
    if format == "jsonl":
        records, as_int = _jsonl_records(lines), _as_int
    elif format == "csv":
        records = ((lineno, row, dict(zip(REVIEW_FIELDS, cells))) for lineno, row, cells
                   in _csv_records(lines, REVIEW_FIELDS, REQUIRED_REVIEW_FIELDS))
        as_int = _csv_int
    else:
        raise ValueError(f"unknown review format {format!r}")
    errors: list[LineError] = []
    seen: set[str] = set()

    def accepted() -> Iterator[tuple]:
        for lineno, line, record in records:
            row, reason = _review_from_record(record, as_int)
            if row is None:
                errors.append(LineError(lineno, reason, _raw(line)))
            elif row[0] in seen:
                errors.append(LineError(lineno, REASON_DUPLICATE, _raw(line)))
            else:
                seen.add(row[0])
                yield row

    return ReviewTable._from_rows(accepted()), errors


def parse_apps(lines: Iterable[str]) -> tuple[dict[str, AppRecord], list[LineError]]:
    """Parse an app catalog from CSV lines.

    Header: app_id,overall_rating,install_count,name (the last two are
    optional columns). The catalog maps each app_id to its record.
    Duplicate app_ids keep the first record and report a
    LineError(duplicate); ratings outside [1, 5] are rejected.
    """
    catalog: dict[str, AppRecord] = {}
    errors: list[LineError] = []
    for lineno, row, cells in _csv_records(lines, APP_FIELDS, REQUIRED_APP_FIELDS):
        app_id, rating_cell, install_cell, name = cells  # APP_FIELDS order
        if app_id is None or rating_cell is None:
            errors.append(LineError(lineno, REASON_MISSING, _raw(row)))
            continue
        try:
            rating = float(rating_cell)
        except ValueError:
            errors.append(LineError(lineno, REASON_SYNTAX, _raw(row)))
            continue
        if not 1.0 <= rating <= 5.0:
            errors.append(LineError(lineno, REASON_RANGE, _raw(row)))
            continue
        install_count: int | None = None
        if install_cell:
            try:
                install_count = _csv_int(install_cell)
            except ValueError:
                errors.append(LineError(lineno, REASON_SYNTAX, _raw(row)))
                continue
            if install_count < 0:
                errors.append(LineError(lineno, REASON_RANGE, _raw(row)))
                continue
        if app_id in catalog:
            errors.append(LineError(lineno, REASON_DUPLICATE, _raw(row)))
            continue
        catalog[app_id] = AppRecord(app_id, rating, install_count, name or None)
    return catalog, errors


# Rows per block of ``write_columns``: the text of one block is held at a time.
_BLOCK_ROWS = 4096


def write_columns(write: Callable[[str], object], template: str, rows: int,
                  *columns: Callable[[slice], Iterable]) -> None:
    """Write ``template % row`` for each of ``rows`` rows of equal-length
    columns, in blocks of at most ``_BLOCK_ROWS`` rows: each block's cells
    are interleaved row by row and formatted by one ``%`` call. A column
    is a function of a block's slice of rows that returns the block's
    cells, so a writer gathers and converts one column's block at a time.
    ``%r`` writes a float as ``csv.writer`` and ``json.dumps`` do; strings
    go in as given, quoted or encoded by the caller."""
    width = len(columns)
    for start in range(0, rows, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, rows - start)
        block = slice(start, start + k)
        cells = [None] * (k * width)
        for j, column in enumerate(columns):
            cells[j::width] = column(block)
        write((template * k) % tuple(cells))


# Every character for which ``csv.writer`` may quote a cell in the dialect
# of ``_quoted``: its delimiter, its quotechar, line breaks and the line
# terminator. A superset: Python 3.11 quotes "\r" only for a "\r" terminator.
_QUOTE_TRIGGERS = (csv.excel.delimiter, csv.excel.quotechar, "\r", "\n")


def _quoted(cells: Sequence[str]) -> Sequence[str]:
    """Each cell as ``csv.writer`` writes it among other cells of a row:
    ``cells`` itself when none holds a character that may be quoted for;
    otherwise each is written once, in a row of two cells whose second is
    empty (a row of one empty cell would be quoted), and cut out of the
    text by the lengths written; a cell written as it is comes back as
    itself."""
    joined = "".join(cells)
    if not any(char in joined for char in _QUOTE_TRIGGERS):
        return cells
    buf = io.StringIO()
    write = csv.writer(buf, lineterminator="\n").writerow
    ends = list(itertools.accumulate(map(write, zip(cells, itertools.repeat("")))))
    text = buf.getvalue()
    return [cell if end - start == len(cell) + 2 else text[start:end - 2]
            for cell, start, end in zip(cells, [0, *ends], ends)]


_REVIEW_LINE = ('{"app_id": %s, "review_id": %s, "reviewer_id": %s, "score": %d%s, '
                '"timestamp": %d}\n')


def write_reviews_jsonl(table: ReviewTable, path: str | Path) -> None:
    """The table's reviews, one canonical JSON line each: keys sorted, text
    left out when absent, non-ASCII as is; each app and reviewer id is
    encoded once."""
    encode = json.encoder.encode_basestring  # the encoder of ensure_ascii=False
    app_ids, reviewer_ids = list(map(encode, table.app_ids)), list(map(encode, table.reviewer_ids))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_columns(fh.write, _REVIEW_LINE, len(table),
                      lambda s: map(app_ids.__getitem__, table.app[s].tolist()),
                      lambda s: map(encode, table.review_id[s]),
                      lambda s: map(reviewer_ids.__getitem__, table.reviewer[s].tolist()),
                      lambda s: table.score[s].tolist(),
                      lambda s: ["" if text is None else ', "text": ' + encode(text)
                                 for text in table.text[s]],
                      lambda s: table.timestamp[s].tolist())


def write_app_catalog_csv(catalog: dict[str, AppRecord], path: str | Path) -> None:
    columns = [f.name for f in fields(AppRecord)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        # csv writes None as an empty cell and a float as its repr.
        writer.writerows(map(attrgetter(*columns), catalog.values()))


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
