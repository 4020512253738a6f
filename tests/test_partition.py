from hypothesis import given
from hypothesis import strategies as st

from reviewstream.ingest import AppRecord, ReviewEdge
from reviewstream.partition import SubstreamLabel, partition_stream


def edge(review_id, app_id="a1", score=5, ts=0):
    return ReviewEdge(review_id, f"u-{review_id}", app_id, ts, score)


def classify(edge, catalog):
    """The label of the one list of ``partition_stream`` that holds the edge."""
    result = partition_stream([edge], catalog)
    (label,) = [label for label in SubstreamLabel if getattr(result, label.value) == [edge]]
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
    result = partition_stream(edges, CATALOG)
    assert result.counts() == {"boost": 2, "sink": 1, "unpartitioned": 0}
    assert [e.review_id for e in result.boost] == ["1", "3"]


def test_unknown_app_is_kept_not_dropped():
    edges = [edge("1", "zz", 5, 0)]
    result = partition_stream(edges, CATALOG)
    assert result.unpartitioned == edges


@given(st.lists(st.tuples(st.sampled_from(["a1", "a2", "zz"]), st.integers(1, 5)), max_size=60))
def test_partition_completeness(items):
    edges = [edge(str(i), app_id=a, score=s, ts=i) for i, (a, s) in enumerate(items)]
    result = partition_stream(edges, CATALOG)
    assert len(result.boost) + len(result.sink) + len(result.unpartitioned) == len(edges)
    # order-preserving disjoint split: merging back by id recovers the input
    merged = sorted(result.boost + result.sink + result.unpartitioned,
                    key=lambda e: int(e.review_id))
    assert merged == edges


def test_determinism():
    edges = [edge(str(i), score=1 + i % 5, ts=i) for i in range(50)]
    first = partition_stream(edges, CATALOG)
    second = partition_stream(edges, CATALOG)
    assert first.boost == second.boost
    assert first.sink == second.sink
    assert first.unpartitioned == second.unpartitioned


@given(rating=st.floats(1.0, 5.0), low=st.integers(1, 5), bump=st.integers(0, 4))
def test_raising_score_never_flips_boost_to_sink(rating, low, bump):
    catalog = {"a": AppRecord("a", rating)}
    high = min(5, low + bump)
    lo_label = classify(edge("x", "a", low), catalog)
    hi_label = classify(edge("y", "a", high), catalog)
    if lo_label is SubstreamLabel.BOOST:
        assert hi_label is SubstreamLabel.BOOST
