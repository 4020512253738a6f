"""The column writer against the per-row writers it replaced.

Every output that ``ingest.write_columns`` formats in blocks is compared
with the text its per-row oracle in ``tests/_reference.py`` writes: ids
holding commas, quotes, line breaks, nothing at all or non-ASCII text;
floats whose ``repr`` is easy to get wrong; empty outputs; and row counts
on both sides of a block edge. Each writer's peak memory is also checked
not to grow with the row count.
"""

import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from reviewstream import cli
from reviewstream.detector import (
    DetectorConfig,
    MicroclusterEvent,
    ScoredStream,
    write_events_jsonl,
    write_scores_csv,
)
from reviewstream.ingest import (
    _BLOCK_ROWS,
    ReviewEdge,
    ReviewTable,
    _quoted,
    write_columns,
    write_reviews_jsonl,
)
from reviewstream.partition import SubstreamLabel
from reviewstream.stats import SharedReviewerGraph, ecdf

IDS = st.one_of(
    st.sampled_from(["", "a", "a,b", ",", 'say "hi"', '"', "\r", "\n", "a\r\nb", " a ",
                     "été", "日本", "#x", "a,,b", "\t", "\\", "\x00",
                     " ", "\U0001f600"]),
    st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=4),
)
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, float(2**53 + 1), 1e16, 1e-7, 0.1, 1 / 3,
                  1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
# Row counts around the block edge, and a few small ones.
ROWS = st.sampled_from([0, 1, 2, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                        2 * _BLOCK_ROWS + 1])


def cycled(draw, strategy, n: int) -> list:
    """``n`` values that cycle through a few drawn from ``strategy``."""
    pool = draw(st.lists(strategy, min_size=1, max_size=7))
    return [pool[i % len(pool)] for i in range(n)]


def written(write_to) -> str:
    """The text ``write_to(path)`` writes, read back without newline translation."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write_to(path)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scores_csv_matches_csv_writer(data):
    n = data.draw(ROWS)
    ids = [cycled(data.draw, IDS, n) for _ in range(3)]
    table = ReviewTable.from_edges(ReviewEdge(r, u, a, 0, 5) for r, u, a in zip(*ids))
    order = np.array(data.draw(st.permutations(range(n))) if n < 10 else
                     np.random.default_rng(n).permutation(n), np.int64)
    ticks = cycled(data.draw, st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                                        st.integers(0, 2**64 - 1)), n)
    scores = cycled(data.draw, st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), n)
    labels = cycled(data.draw, st.integers(0, len(SubstreamLabel) - 1), n)
    scored = ScoredStream(table, order, np.array(ticks, np.uint64),
                          np.array(scores, np.float64), np.array(labels, np.int8))
    config = DetectorConfig(origin=0)
    assert written(lambda path: write_scores_csv(scored, config, path)) == \
        _reference.scores_csv_text(scored, config)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_events_jsonl_matches_json_dumps(data):
    """Ratios are finite, as the detector writes them, or ints, as an
    events file may hold them."""
    n = data.draw(ROWS)
    counts = st.one_of(st.sampled_from([0, 1, 2**63 - 1]), st.integers(0, 2**64))
    events = [MicroclusterEvent(*row) for row in zip(
        cycled(data.draw, IDS, n), cycled(data.draw, st.sampled_from(SubstreamLabel), n),
        *(cycled(data.draw, counts, n) for _ in range(3)),
        cycled(data.draw, st.one_of(FINITE, st.integers(0, 10)), n))]
    assert written(lambda path: write_events_jsonl(iter(events), path)) == \
        _reference.events_jsonl_text(events)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ecdf_csv_matches_csv_writer(data):
    n = data.draw(ROWS)
    pool = set(data.draw(st.lists(FINITE, max_size=5)))
    # About n distinct values, so the CDF has about n rows.
    values = [*pool, *(3e5 + i / 1024 for i in range(n - len(pool)))]
    chunks = []
    cli._ecdf_csv(values, chunks.append)
    assert "".join(chunks) == _reference.ecdf_csv_text(values)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_network_csv_matches_format_join(data):
    n = data.draw(ROWS)
    apps = data.draw(st.lists(IDS, min_size=1, max_size=10, unique=True))
    codes = st.integers(0, len(apps) - 1)
    graph = SharedReviewerGraph(apps, *(np.array(cycled(data.draw, strategy, n), np.int64)
                                        for strategy in (codes, codes, st.integers(1, 2**62))))
    chunks = []
    cli._network_csv(graph, chunks.append)
    assert "".join(chunks) == _reference.network_csv_text(graph)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reviews_jsonl_matches_review_to_line(data):
    n = data.draw(ROWS)
    edges = [ReviewEdge(*row) for row in zip(
        *(cycled(data.draw, IDS, n) for _ in range(3)),
        cycled(data.draw, st.sampled_from([0, 1, 2**63 - 1]) | st.integers(0, 2**63 - 1), n),
        cycled(data.draw, st.integers(1, 5), n),
        cycled(data.draw, st.none() | IDS | st.text(max_size=30), n))]
    expected = "".join(_reference.review_to_line(edge) + "\n" for edge in edges)
    assert written(lambda path: write_reviews_jsonl(ReviewTable.from_edges(edges), path)) \
        == expected


def writer_inputs(n: int, monkeypatch) -> dict:
    """For each column writer, a call that writes ``n`` rows to nowhere,
    its inputs built here; ids and floats cycle through fixed pools, so
    every full block formats the same text."""
    table = ReviewTable.from_edges(
        ReviewEdge(f"r{i:06d}", f"u{i % 7}", f"a{i % 5}", i, 1 + i % 5, f"text {i % 3}")
        for i in range(n))
    cycle = np.arange(n) % 11
    scored = ScoredStream(table, np.arange(n)[::-1].copy(), cycle.astype(np.uint64),
                          cycle / 7, (cycle % 2).astype(np.int8))
    events = [MicroclusterEvent(f"a{i % 5}", SubstreamLabel.BOOST, i % 9, 1, 3, i % 11 / 7)
              for i in range(n)]
    points = ecdf(cycle / 7 + np.arange(n))  # n distinct values
    monkeypatch.setattr(cli, "ecdf", lambda values: points)  # built outside the write
    graph = SharedReviewerGraph([f"a{i}" for i in range(5)], cycle % 5, (cycle + 1) % 5,
                                cycle + 1)
    config = DetectorConfig(origin=0)
    return {
        "scores": lambda: write_scores_csv(scored, config, os.devnull),
        "events": lambda: write_events_jsonl(events, os.devnull),
        "ecdf": lambda: cli._ecdf_csv(cycle, lambda text: None),
        "network": lambda: cli._network_csv(graph, lambda text: None),
        "reviews": lambda: write_reviews_jsonl(table, os.devnull),
    }


def traced_peak(call) -> int:
    """The peak memory ``call`` allocates, numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", ["scores", "events", "ecdf", "network", "reviews"])
def test_writer_peak_does_not_grow_with_rows(writer, monkeypatch):
    """A writer holds one block of cells, not whole columns: four times
    the rows adds less than a byte per added row to its peak."""
    small, large = 2 * _BLOCK_ROWS + 1, 8 * _BLOCK_ROWS + 1
    peaks = {n: traced_peak(writer_inputs(n, monkeypatch)[writer]) for n in (small, large)}
    assert peaks[large] - peaks[small] < large - small, peaks


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_write_columns_writes_one_block_per_call(rows):
    chunks = []
    numbers = range(rows)
    write_columns(chunks.append, "%d,%s\n", rows, numbers.__getitem__,
                  lambda block: map(str, numbers[block]))
    assert len(chunks) == -(-rows // _BLOCK_ROWS)
    assert "".join(chunks) == "".join(f"{i},{i}\n" for i in range(rows))


def test_write_columns_rejects_a_short_column():
    with pytest.raises(ValueError):
        write_columns([].append, "%d,%d\n", 3, [1, 2, 3].__getitem__, [1, 2].__getitem__)


@pytest.mark.parametrize("context", ["{}", "a{}b", " {}"])
def test_quoted_matches_csv_writer_for_every_code_point(context):
    """Each code point alone, between two letters and after a space, as
    ``csv.writer`` writes it: one cell at a time, where a cell that may
    not be quoted comes back unchanged, and all cells at once, where
    every one goes through ``csv.writer``."""
    cells = [context.format(chr(code)) for code in range(0x110000)]
    expected = _reference.quoted_cells(cells)
    assert [_quoted((cell,))[0] for cell in cells] == expected
    assert list(_quoted(cells)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(IDS, max_size=12))
def test_quoted_matches_csv_writer_per_cell(cells):
    assert list(_quoted(cells)) == _reference.quoted_cells(cells)
