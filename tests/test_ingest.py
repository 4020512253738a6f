import csv
import io
import json
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewstream.detector import DetectorConfig, MicroclusterEvent
from reviewstream.ingest import (
    BeforeOriginError,
    ReviewEdge,
    ReviewTable,
    json_fields,
    json_value,
    parse_apps,
    parse_reviews,
)
from reviewstream.synth import Injection, SynthSpec

import _reference
from _reference import to_tick


def jline(**kw) -> str:
    return json.dumps(kw)


def parse_edges(lines, format="jsonl"):
    """``parse_reviews`` with the table's rows as ``ReviewEdge``s."""
    table, errors = parse_reviews(lines, format=format)
    return _reference.table_edges(table), errors


VALID = dict(review_id="x1", reviewer_id="u1", app_id="a1", timestamp=0, score=5)


class TestParseReviews:
    def test_minimal_valid_record(self):
        edges, errors = parse_edges([jline(**VALID)])
        assert errors == []
        assert edges == [ReviewEdge("x1", "u1", "a1", 0, 5, None)]

    def test_score_out_of_range(self):
        edges, errors = parse_edges([jline(**{**VALID, "score": 6})])
        assert edges == []
        assert len(errors) == 1 and errors[0].reason == "range"

    def test_negative_timestamp(self):
        _, errors = parse_edges([jline(**{**VALID, "timestamp": -5})])
        assert errors[0].reason == "range"

    def test_timestamp_must_fit_int64(self):
        largest = 2**63 - 1
        lines = [jline(**{**VALID, "review_id": "x1", "timestamp": largest}),
                 jline(**{**VALID, "review_id": "x2", "timestamp": largest + 1}),
                 jline(**{**VALID, "review_id": "x3", "timestamp": 1e19})]
        edges, errors = parse_edges(lines)
        assert [e.timestamp for e in edges] == [largest]
        assert [(e.line, e.reason) for e in errors] == [(2, "range"), (3, "range")]
        csv_lines = ["review_id,reviewer_id,app_id,timestamp,score",
                     f"x1,u1,a1,{largest},5", f"x2,u1,a1,{largest + 1},5"]
        edges, errors = parse_edges(csv_lines, format="csv")
        assert [e.timestamp for e in edges] == [largest]
        assert [(e.line, e.reason) for e in errors] == [(3, "range")]

    def test_missing_field(self):
        record = {k: v for k, v in VALID.items() if k != "reviewer_id"}
        _, errors = parse_edges([jline(**record)])
        assert errors[0].reason == "missing_field"

    def test_wrong_type_is_syntax(self):
        _, errors = parse_edges([jline(**{**VALID, "score": "five"})])
        assert errors[0].reason == "syntax"

    def test_duplicate_id_keeps_first(self):
        lines = [
            jline(**VALID),
            jline(**{**VALID, "score": 1}),
        ]
        edges, errors = parse_edges(lines)
        assert len(edges) == 1 and edges[0].score == 5
        assert errors[0].reason == "duplicate" and errors[0].line == 2

    def test_ten_lines_two_malformed(self):
        # hand-built file: lines 4 and 8 are bad, the rest are valid
        lines = []
        for i in range(1, 11):
            if i == 4:
                lines.append("{not json")
            elif i == 8:
                lines.append(jline(review_id=f"x{i}", reviewer_id="u", app_id="a",
                                   timestamp=i, score=9))
            else:
                lines.append(jline(review_id=f"x{i}", reviewer_id="u", app_id="a",
                                   timestamp=i, score=3))
        edges, errors = parse_edges(lines)
        assert len(edges) == 8
        assert [e.review_id for e in edges] == [f"x{i}" for i in range(1, 11) if i not in (4, 8)]
        assert [(e.line, e.reason) for e in errors] == [(4, "syntax"), (8, "range")]

    def test_csv_round(self):
        lines = [
            "review_id,reviewer_id,app_id,timestamp,score,text",
            'x1,u1,a1,10,5,"nice, works"',
            "x2,u2,a1,11,6,",
            "x3,u3,a1,abc,2,",
        ]
        edges, errors = parse_edges(lines, format="csv")
        assert [e.review_id for e in edges] == ["x1"]
        assert edges[0].text == "nice, works"
        assert [e.reason for e in errors] == ["range", "syntax"]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_edges([], format="tsv")

    @pytest.mark.parametrize("cell", ["1_0", "+2", " 7", "7 ", "٣", "²", "-", "--1", "0x1"])
    @pytest.mark.parametrize("column", ["timestamp", "score"])
    def test_csv_integers_are_ascii_digits(self, column, cell):
        row = {"review_id": "x1", "reviewer_id": "u1", "app_id": "a1", "timestamp": "3",
               "score": "2", column: cell}
        lines = [",".join(row), ",".join(f'"{v}"' for v in row.values()),
                 "x2,u1,a1,-0,5", "x3,u1,a1,0010,5"]
        edges, errors = parse_edges(lines, format="csv")
        assert [(e.review_id, e.timestamp) for e in edges] == [("x2", 0), ("x3", 10)]
        assert [(e.line, e.reason) for e in errors] == [(2, "syntax")]


class TestParseApps:
    def test_single_record(self):
        catalog, errors = parse_apps([
            "app_id,overall_rating,install_count,name",
            "a1,4.3,1000,Cashmonster",
        ])
        assert errors == [] and len(catalog) == 1
        record = catalog.get("a1")
        assert record.overall_rating == 4.3 and record.install_count == 1000

    def test_duplicate_keeps_first(self):
        catalog, errors = parse_apps([
            "app_id,overall_rating",
            "a1,4.3",
            "a1,2.0",
        ])
        assert len(catalog) == 1
        assert catalog.get("a1").overall_rating == 4.3
        assert errors[0].reason == "duplicate"

    @pytest.mark.parametrize("cell", ["1_000", "+5", " 5", "٣", "1e3"])
    def test_install_count_is_ascii_digits(self, cell):
        catalog, errors = parse_apps([
            "app_id,overall_rating,install_count",
            f'a1,4.0,"{cell}"',
            "a2,4.0,0042",
        ])
        assert [(r.app_id, r.install_count) for r in catalog.values()] == [("a2", 42)]
        assert [(e.line, e.reason) for e in errors] == [(2, "syntax")]

    def test_negative_install_count_is_out_of_range(self):
        catalog, errors = parse_apps([
            "app_id,overall_rating,install_count",
            "a1,4.0,-1",
            "a2,4.0,0",
        ])
        assert [(r.app_id, r.install_count) for r in catalog.values()] == [("a2", 0)]
        assert [(e.line, e.reason, e.raw) for e in errors] == [(2, "range", "a1,4.0,-1")]

    def test_rating_out_of_range(self):
        catalog, errors = parse_apps([
            "app_id,overall_rating",
            "a2,5.7",
        ])
        assert len(catalog) == 0
        assert errors[0].reason == "range"


class TestToTick:
    def test_first_period(self):
        assert to_tick(1, 0, 86_400) == 1

    def test_boundary_is_closed_on_the_right(self):
        # a timestamp exactly at the end of a window belongs to that window
        assert to_tick(86_400, 0, 86_400) == 1
        assert to_tick(86_401, 0, 86_400) == 2

    def test_origin_maps_to_tick_one(self):
        assert to_tick(0, 0, 86_400) == 1

    def test_closed_form(self):
        import math
        ts, origin, period = 10 * 86_400, 0, 86_400
        assert to_tick(ts, origin, period) == 10
        assert to_tick(ts, origin, period) == math.ceil((ts - origin) / period)

    def test_before_origin(self):
        with pytest.raises(BeforeOriginError):
            to_tick(99, 100, 10)

    def test_exhaustive_small_window(self):
        origin, period = 100, 5
        for n in range(1, 8):
            for ts in range(origin + (n - 1) * period + 1, origin + n * period + 1):
                assert to_tick(ts, origin, period) == n

    @given(ts1=st.integers(0, 10**9), ts2=st.integers(0, 10**9),
           period=st.integers(1, 10**6))
    def test_monotone(self, ts1, ts2, period):
        lo, hi = sorted((ts1, ts2))
        assert to_tick(lo, 0, period) <= to_tick(hi, 0, period)


ids = st.text(min_size=1, max_size=20)
texts = st.one_of(st.none(), st.text(max_size=50))


@settings(max_examples=100)
@given(
    review_id=ids, reviewer_id=ids, app_id=ids,
    timestamp=st.integers(0, 2**40), score=st.integers(1, 5), text=texts,
)
def test_round_trip(review_id, reviewer_id, app_id, timestamp, score, text):
    edge = ReviewEdge(review_id, reviewer_id, app_id, timestamp, score, text)
    reparsed, errors = parse_edges([_reference.review_to_line(edge)])
    assert errors == []
    assert reparsed == [edge]


@settings(max_examples=50)
@given(
    n_valid=st.integers(0, 20),
    garbage_at=st.sets(st.integers(0, 25), max_size=5),
)
def test_never_drops_valid_records(n_valid, garbage_at):
    lines = []
    valid = 0
    slot = 0
    while valid < n_valid:
        if slot in garbage_at:
            lines.append("???")
        else:
            lines.append(jline(review_id=f"r{valid}", reviewer_id="u", app_id="a",
                               timestamp=valid, score=1 + valid % 5))
            valid += 1
        slot += 1
    edges, errors = parse_reviews(lines)
    assert len(edges) == n_valid
    assert len(edges) + len(errors) == len(lines)


# Oracle properties: the shared record path against the earlier parser,
# which kept a separate loop per format (tests/_reference.py).

VALID_CELLS = {
    "review_id": ["x1", "x2", "x3", "x,4", "x\n5"], "reviewer_id": ["u1", "u2"],
    "app_id": ["a1", "a2", "a,3"], "timestamp": ["0", "10", str(2**63 - 1)],
    "score": ["1", "3", "5"], "text": ["", "nice", "a,b", "two\nlines"],
    "overall_rating": ["1", "4.3", "5.0"], "install_count": ["", "0", "1000"],
    "name": ["", "Cash"], "extra": ["e"],
}
REVIEW_COLUMNS = ["review_id", "reviewer_id", "app_id", "timestamp", "score", "text"]
APP_COLUMNS = ["app_id", "overall_rating", "install_count", "name"]
TRICKY_CELLS = ["", "0", "3", "5", "6", "1.5", " 4", "1_0", "٣", "-1", "+2",
                str(2**63), str(2**63 - 1), "2**63", "abc", "a,b", "two\nlines",
                'say "hi"', "4.3", "1e0", "nan", "inf", "0.9", "5.7"]
JSON_VALUES = [None, True, False, 0, 1, 5, 6, -1, 2**63 - 1, 2**63, 2**64, 3.0, 1.5,
               1e19, -0.0, float("nan"), float("inf"), "", "x1", "5", "x\ud800", [], {}]
VALID_JSON = {"review_id": ["x1", "x2", "x3", ""], "reviewer_id": ["u1", "u2"],
              "app_id": ["a1", "a2"], "timestamp": [0, 10, 10.0, 2**63 - 1],
              "score": [1, 3, 5.0], "text": [None, "", "nice"]}


@st.composite
def csv_lines(draw, columns):
    """A CSV file, mostly well-formed: a full or a partial, repeated,
    reordered or extended header, then rows whose cells are mostly valid
    for their column, some short or long."""
    if draw(st.integers(0, 3)):
        header = draw(st.permutations(columns))
        header[draw(st.integers(0, len(header))):0] = draw(
            st.lists(st.sampled_from(columns + ["extra"]), max_size=1))
    else:
        header = draw(st.lists(st.sampled_from(columns + ["extra"]), min_size=1,
                               max_size=len(columns) + 2))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [draw(st.sampled_from(VALID_CELLS[name])) for name in header]
        for i in draw(st.sets(st.integers(0, len(row) - 1), max_size=2)):
            row[i] = draw(st.one_of(st.sampled_from(TRICKY_CELLS), st.text(max_size=3)))
        length = draw(st.integers(0, 5))
        if length == 0:
            row = row[:draw(st.integers(0, len(row)))]
        elif length == 1:
            row += draw(st.lists(st.sampled_from(TRICKY_CELLS), min_size=1, max_size=2))
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            buf.write("\n")
        writer.writerow(row)
    text = ("\n" if draw(st.booleans()) else "") + buf.getvalue()
    return text.splitlines(keepends=True)


@st.composite
def jsonl_line(draw):
    """A review object with up to two fields dropped or replaced by an
    odd JSON value, or a line that is no object at all."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", "   ", "\n", "{not json", "[1, 2]", "null", '"x"']))
    if kind == 1:
        return json.dumps(draw(st.one_of(st.sampled_from(JSON_VALUES), st.floats())))
    obj = {name: draw(st.sampled_from(values)) for name, values in VALID_JSON.items()}
    for name in draw(st.sets(st.sampled_from(REVIEW_COLUMNS), max_size=2)):
        if draw(st.booleans()):
            del obj[name]
        else:
            obj[name] = draw(st.one_of(st.sampled_from(JSON_VALUES), st.integers(),
                                       st.floats(), st.text(max_size=3)))
    if obj.get("text", 0) is None and draw(st.booleans()):
        del obj["text"]
    return json.dumps(obj)


def assert_matches_reference(lines, format="jsonl"):
    """The table parse gives the object parser's rows, in order, the same
    LineErrors, and codes into first-appearance id lists; or the same
    ``ValueError`` for a header that names a column twice."""
    try:
        ref_edges, ref_errors = _reference.parse_reviews(lines, format=format)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            parse_reviews(lines, format=format)
        return
    table, errors = parse_reviews(lines, format=format)
    assert errors == ref_errors
    assert _reference.table_edges(table) == ref_edges
    assert table.review_id == [e.review_id for e in ref_edges]
    assert table.app_ids == list(dict.fromkeys(e.app_id for e in ref_edges))
    assert table.reviewer_ids == list(dict.fromkeys(e.reviewer_id for e in ref_edges))
    assert table.app.tolist() == [table.app_ids.index(e.app_id) for e in ref_edges]
    assert table.reviewer.tolist() == [table.reviewer_ids.index(e.reviewer_id)
                                       for e in ref_edges]
    assert (table.app.dtype, table.reviewer.dtype, table.timestamp.dtype, table.score.dtype) == (
        np.int64, np.int64, np.int64, np.int8)


@settings(max_examples=400)
@given(lines=csv_lines(REVIEW_COLUMNS))
def test_csv_reviews_match_reference(lines):
    assert_matches_reference(lines, format="csv")


@settings(max_examples=400)
@given(lines=csv_lines(APP_COLUMNS))
def test_catalog_matches_reference(lines):
    try:
        ref_catalog, ref_errors = _reference.parse_apps(lines)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            parse_apps(lines)
        return
    catalog, errors = parse_apps(lines)
    assert errors == ref_errors
    assert list(catalog.items()) == list(ref_catalog.items())


@settings(max_examples=400)
@given(lines=st.lists(jsonl_line(), max_size=12))
def test_jsonl_reviews_match_reference(lines):
    assert_matches_reference(lines)


ODD_FIELDS = ["missing", None, True, False, "", 0.0, 1.0, 2.5, -0.0, float(2**63), -1, 6,
              "\udc00x"]


@st.composite
def odd_record(draw):
    """A review object whose every field, independently, is valid, a bool,
    a float, empty, None or missing."""
    obj = {name: draw(st.sampled_from(VALID_JSON[name] + ODD_FIELDS)) for name in VALID_JSON}
    return json.dumps({name: value for name, value in obj.items() if value != "missing"})


@settings(max_examples=400)
@given(lines=st.lists(odd_record(), max_size=10))
def test_record_fields_read_once_match_reference(lines):
    """Reading each field once, and ints without ``as_int``, keeps the
    object parser's rows and every ``LineError`` reason."""
    assert_matches_reference(lines)


DEEP = 100_000  # far past the recursion limit


@st.composite
def odd_jsonl_line(draw):
    """A line that ``json.loads`` and a scan of the stripped line could
    read differently: a BOM, JSON or other whitespace around the object, a
    line of whitespace only, ``null``, two objects or trailing data, NaN
    and Infinity literals, nesting past the recursion limit, a valid
    object holding a nested value, or an integer too long to convert."""
    obj = draw(jsonl_line())
    kind = draw(st.integers(0, 10))
    if kind == 0:
        return "\ufeff" + obj
    if kind == 1:  # "\x1c" is whitespace to str.strip, not to JSON
        return draw(st.sampled_from(["", " ", "\t", "\r", "\n", " \t\r", "\x1c", " \x1c"])) \
            + obj + draw(st.sampled_from(["", " ", "\t", "\r", " \r", "\n", " \t\r", "\x1c"]))
    if kind == 2:
        return draw(st.sampled_from(["{}, {}", "{} {}", "{}{}", obj + ", {}", obj + obj]))
    if kind == 3:
        return obj + draw(st.sampled_from([" x", "]", "}", ",", " 1", "\x00", " //"]))
    if kind == 4:
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        field = draw(st.sampled_from(["timestamp", "score", "extra"]))
        return json.dumps({**VALID, field: 0}).replace('": 0', '": ' + literal, 1)
    if kind == 5:
        return draw(st.sampled_from(["[", "{\"a\": [", "{\"a\": "])) * DEEP
    if kind == 6:
        depth = draw(st.integers(1, 50))
        return json.dumps(VALID)[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}"
    if kind == 7:
        return '{"review_id": "x1", ' + '"t": {' * 20 + "}" * 20 + "}"
    if kind == 8:  # past the 4300 digits int() converts: a ValueError, not a JSONDecodeError
        digits = draw(st.sampled_from([4300, 4301, 10_000]))
        return json.dumps(VALID).replace('"timestamp": 0', '"timestamp": 1' + "0" * (digits - 1))
    if kind == 9:
        return draw(st.sampled_from([" \t\r", " ", "\x1c", " \x1c\t", "\u3000", "\ufeff",
                                     "null", " null\r", "\x1cnull"]))
    return obj


@settings(max_examples=300)
@given(lines=st.lists(odd_jsonl_line(), max_size=8))
def test_odd_jsonl_lines_match_reference(lines):
    assert_matches_reference(lines)


def test_deep_or_overlong_line_is_a_syntax_error():
    """JSON nested past the recursion limit, and an integer of more than
    4300 digits, reject their line and leave the rest of the parse alone."""
    overlong = json.dumps(VALID).replace('"timestamp": 0', '"timestamp": 1' + "0" * 5000)
    lines = [json.dumps(VALID), "[" * DEEP, '{"a": ' + "[" * DEEP, overlong,
             json.dumps({**VALID, "review_id": "x2"})]
    table, errors = parse_reviews(lines)
    assert table.review_id == ["x1", "x2"]
    assert [(e.line, e.reason) for e in errors] == [(2, "syntax"), (3, "syntax"), (4, "syntax")]


def test_table_from_edges_round_trips():
    edges = [ReviewEdge("x1", "u2", "a1", 5, 3, "t"), ReviewEdge("x2", "u1", "a1", 2**63 - 1, 1),
             ReviewEdge("x3", "u2", "a0", 0, 5, "")]
    table = ReviewTable.from_edges(edges)
    assert _reference.table_edges(table) == edges
    assert _reference.table_edges(table, [2, 0]) == [edges[2], edges[0]]
    assert (table.app_ids, table.app.tolist()) == (["a1", "a0"], [0, 0, 1])
    assert (table.reviewer_ids, table.reviewer.tolist()) == (["u2", "u1"], [0, 1, 0])
    assert table.rows([2, 1]).row.tolist() == [2, 1]
    empty = ReviewTable.from_edges([])
    assert len(empty) == 0 and _reference.table_edges(empty) == []


# The dataclasses read from JSON, each with one object it accepts.
JSON_CLASSES = {
    MicroclusterEvent: {"app_id": "a", "substream": "boost", "prior_tick": 1, "prior_count": 0,
                        "burst_count": 3, "ratio": 3.0},
    SynthSpec: {"n_apps": 1, "n_reviewers": 1, "ticks": 1, "background_rate": 0},
    Injection: {"app_id": "a000", "tick": 1, "n_edges": 0, "n_reviewers_used": 1,
                "score_mode": "boost"},
    DetectorConfig: {"origin": 0},
}
FIELD_KINDS = list(dict.fromkeys(kind for cls in JSON_CLASSES
                                 for kind in typing.get_type_hints(cls).values()))


def outcome(read, *args):
    """What ``read(*args)`` returns, or None where it raises ``ValueError``;
    any other exception propagates and fails the property."""
    try:
        return (read(*args),)
    except ValueError:
        return None


class TestJsonFields:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(FIELD_KINDS), value=_reference.JSON_VALUES)
    def test_json_value_matches_reference(self, kind, value):
        got = outcome(json_value, "f", kind, value)
        want = outcome(_reference.json_value, "f", kind, value)
        assert (got is None) == (want is None)
        if got is not None:  # the value itself, or the enum member
            assert got[0] is want[0]

    @settings(max_examples=400, deadline=None)
    @given(cls=st.sampled_from(list(JSON_CLASSES)), data=st.data())
    def test_json_fields_matches_reference(self, cls, data):
        """Objects near an accepted one: fields dropped, replaced by any
        JSON value or added under unknown names, or no object at all."""
        valid = JSON_CLASSES[cls]
        names = list(typing.get_type_hints(cls))
        dropped = data.draw(st.sets(st.sampled_from(names), max_size=2))
        changed = data.draw(st.dictionaries(st.sampled_from(names + ["sed", ""]),
                                            _reference.JSON_VALUES, max_size=3))
        obj = data.draw(st.one_of(
            st.just({**{k: v for k, v in valid.items() if k not in dropped}, **changed}),
            _reference.JSON_VALUES))
        got = outcome(json_fields, cls, obj)
        want = outcome(_reference.json_fields, cls, obj)
        assert (got is None) == (want is None)
        if got is not None:
            assert list(got[0]) == list(want[0]) == list(obj)
            assert all(got[0][name] is want[0][name] for name in obj)

    def test_event_ticks_and_config_ints_stay_unbounded(self):
        assert json_value("prior_tick", int, 2**64 - 2) == 2**64 - 2
        assert json_fields(DetectorConfig, {"origin": 0, "period": 2**70})["period"] == 2**70
        with pytest.raises(ValueError, match="n_apps must fit int64, got 9223372036854775808"):
            SynthSpec.from_dict({**JSON_CLASSES[SynthSpec], "n_apps": 2**63})

    def test_synth_ints_stay_ints(self):
        spec = SynthSpec.from_dict({**JSON_CLASSES[SynthSpec], "background_rate": 2,
                                    "base_rating": 4})
        assert type(spec.background_rate) is int and type(spec.base_rating) is int
