from hypothesis import given
from hypothesis import strategies as st

from reviewstream.ingest import AppRecord, ReviewEdge, ReviewTable
from reviewstream.partition import SubstreamLabel, partition_stream

from _reference import table_edges


def edge(review_id, app_id="a1", score=5, ts=0):
    return ReviewEdge(review_id, f"u-{review_id}", app_id, ts, score)


def partition(edges, catalog):
    """``partition_stream`` over the edges in order, each sub-stream as a
    list of ``ReviewEdge``s."""
    result = partition_stream(ReviewTable.from_edges(edges).rows(), catalog)
    parts = {label: getattr(result, label.value) for label in SubstreamLabel}
    return {label: table_edges(part.table, part.row) for label, part in parts.items()}


def classify(edge, catalog):
    """The label of the one sub-stream of ``partition_stream`` that holds the edge."""
    (label,) = [label for label, edges in partition([edge], catalog).items() if edges == [edge]]
    return label


CATALOG = {"a1": AppRecord("a1", 4.3), "a2": AppRecord("a2", 4.0)}


def test_score_above_rating_boosts():
    assert classify(edge("x", score=5), CATALOG) is SubstreamLabel.BOOST


def test_score_below_rating_sinks():
    assert classify(edge("x", score=3), CATALOG) is SubstreamLabel.SINK


def test_tie_goes_to_boost():
    assert classify(edge("x", app_id="a2", score=4), CATALOG) is SubstreamLabel.BOOST


def test_unknown_app_is_unpartitioned():
    assert classify(edge("x", app_id="zz"), CATALOG) is SubstreamLabel.UNPARTITIONED


def test_partition_counts():
    edges = [edge("1", "a2", 5, 0), edge("2", "a2", 1, 1), edge("3", "a2", 5, 2)]
    result = partition_stream(ReviewTable.from_edges(edges).rows(), CATALOG)
    assert result.counts() == {"boost": 2, "sink": 1, "unpartitioned": 0}
    assert [e.review_id for e in table_edges(result.boost.table, result.boost.row)] == ["1", "3"]


def test_unknown_app_is_kept_not_dropped():
    edges = [edge("1", "zz", 5, 0)]
    assert partition(edges, CATALOG)[SubstreamLabel.UNPARTITIONED] == edges


@given(st.lists(st.tuples(st.sampled_from(["a1", "a2", "zz"]), st.integers(1, 5)), max_size=60))
def test_partition_completeness(items):
    edges = [edge(str(i), app_id=a, score=s, ts=i) for i, (a, s) in enumerate(items)]
    result = partition(edges, CATALOG)
    boost, sink, unpartitioned = result.values()
    assert len(boost) + len(sink) + len(unpartitioned) == len(edges)
    # order-preserving disjoint split: merging back by id recovers the input
    merged = sorted(boost + sink + unpartitioned, key=lambda e: int(e.review_id))
    assert merged == edges


def test_determinism():
    edges = [edge(str(i), score=1 + i % 5, ts=i) for i in range(50)]
    assert partition(edges, CATALOG) == partition(edges, CATALOG)


@given(rating=st.floats(1.0, 5.0), low=st.integers(1, 5), bump=st.integers(0, 4))
def test_raising_score_never_flips_boost_to_sink(rating, low, bump):
    catalog = {"a": AppRecord("a", rating)}
    high = min(5, low + bump)
    lo_label = classify(edge("x", "a", low), catalog)
    hi_label = classify(edge("y", "a", high), catalog)
    if lo_label is SubstreamLabel.BOOST:
        assert hi_label is SubstreamLabel.BOOST


def test_rows_in_stream_order_and_apps_outside_the_stream():
    """Partition follows the order of the rows it is given, and a catalog
    app with no review does not matter."""
    edges = [edge("1", "a2", 5, 9), edge("2", "a1", 1, 0), edge("3", "zz", 5, 4)]
    table = ReviewTable.from_edges(edges)
    result = partition_stream(table.rows([1, 2, 0]), {**CATALOG, "a9": AppRecord("a9", 1.0)})
    assert (result.boost.row.tolist(), result.sink.row.tolist(),
            result.unpartitioned.row.tolist()) == ([0], [1], [2])
    assert all(part.table is table for part in (result.boost, result.sink, result.unpartitioned))


def test_nan_rating_sinks_every_score():
    """A listed app whose rating is NaN is compared, not skipped: no
    score reaches it, as with ``score >= rating`` per edge."""
    catalog = {"a": AppRecord("a", float("nan"))}
    assert classify(edge("x", "a", 5), catalog) is SubstreamLabel.SINK
