import numpy as np
import pytest

from reviewstream.detector import DetectorConfig, run_detector
from reviewstream.ingest import ReviewTable
from reviewstream.partition import SubstreamLabel, partition_stream
from reviewstream.stats import shared_reviewer_graph
from reviewstream.synth import MAX_APP_TICKS, Injection, SynthSpec, gen_stream

from _reference import graph_rows, review_to_line, to_tick

PERIOD = 86_400


def spec(**kw) -> SynthSpec:
    base = dict(n_apps=5, n_reviewers=100, ticks=10, background_rate=1.0, seed=3)
    base.update(kw)
    return SynthSpec(**base)


def test_zero_rate_yields_only_injections():
    s = spec(background_rate=0.0,
             injections=(Injection("a001", 4, 25, 3, "boost"),))
    result = gen_stream(s)
    assert len(result.edges) == 25
    assert all(e.app_id == "a001" and e.score == 5 for e in result.edges)
    assert result.injected_ids() == {e.review_id for e in result.edges}


def test_same_seed_is_byte_identical():
    s = spec(injections=(Injection("a002", 5, 10, 2, "sink"),))
    first = "\n".join(review_to_line(e) for e in gen_stream(s).edges)
    second = "\n".join(review_to_line(e) for e in gen_stream(s).edges)
    assert first == second


def test_different_seed_differs():
    a = gen_stream(spec(seed=1)).edges
    b = gen_stream(spec(seed=2)).edges
    assert a != b


def test_poisson_mean_over_many_seeds():
    # 2 edges/app/tick * 20 apps * 30 ticks = 1200 expected per seed
    totals = [
        len(gen_stream(spec(n_apps=20, ticks=30, background_rate=2.0, seed=i)).edges)
        for i in range(100)
    ]
    assert 1200 * 0.95 <= np.mean(totals) <= 1200 * 1.05


def test_edges_sorted_and_within_tick_bounds():
    result = gen_stream(spec(injections=(Injection("a000", 7, 12, 4, "boost"),)))
    timestamps = [e.timestamp for e in result.edges]
    assert timestamps == sorted(timestamps)
    for e in result.edges:
        assert 1 <= to_tick(e.timestamp, 0, PERIOD) <= 10


def test_injection_adds_exactly_n_edges_to_target_tick():
    base = spec(n_apps=8, ticks=12, background_rate=1.0)
    before = gen_stream(base)
    with_inj = gen_stream(spec(
        n_apps=8, ticks=12, background_rate=1.0,
        injections=(Injection("a007", 11, 100, 5, "boost"),),
    ))

    def tick_count(edges, app, tick):
        return sum(
            1 for e in edges
            if e.app_id == app and to_tick(e.timestamp, 0, PERIOD) == tick
        )

    # background is seed-identical, so the delta is exactly the injection
    assert tick_count(with_inj.edges, "a007", 11) == tick_count(before.edges, "a007", 11) + 100


def test_zero_edge_injection_is_identity():
    background = gen_stream(spec()).edges
    out = gen_stream(spec(injections=(Injection("a000", 3, 0, 1, "boost"),))).edges
    assert out == background


def test_injection_preserves_background():
    background = gen_stream(spec()).edges
    out = gen_stream(spec(injections=(Injection("a000", 3, 9, 3, "sink"),))).edges
    assert set(background) <= set(out)
    assert len(out) == len(background) + 9


def test_truth_labels_never_leak_into_the_review_schema():
    import json
    result = gen_stream(spec(injections=(Injection("a001", 2, 5, 2, "boost"),)))
    for e in result.edges[:20]:
        obj = json.loads(review_to_line(e))
        assert set(obj) <= {"review_id", "reviewer_id", "app_id", "timestamp", "score", "text"}
    by_id = {t.review_id: t for t in result.truth}
    assert len(by_id) == len(result.edges)
    assert by_id[next(iter(result.injected_ids()))].injection_index == 0


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        spec(injections=(Injection("a001", 99, 5, 2, "boost"),)).validate()
    with pytest.raises(ValueError):
        spec(injections=(Injection("zz", 2, 5, 2, "boost"),)).validate()
    with pytest.raises(ValueError):
        spec(injections=(Injection("a001", 2, 5, 2, "meh"),)).validate()
    with pytest.raises(ValueError):
        spec(background_rate=-1.0).validate()


def test_coordinated_reviewers_boosting_two_apps_fire_both():
    # two same-tick bursts written by one pool of three reviewers on a
    # quiet background: both apps must fire the burst-ratio test
    s = spec(
        n_apps=6, ticks=12, background_rate=0.2, seed=11,
        injections=(
            Injection("a001", 6, 30, 3, "boost"),
            Injection("a002", 6, 30, 3, "boost"),
        ),
    )
    result = gen_stream(s)
    table = ReviewTable.from_edges(result.edges)
    partitioned = partition_stream(table.rows(), result.catalog)
    config = DetectorConfig(origin=0, period=PERIOD, burst_factor=2.0)
    _, events = run_detector(partitioned.boost, config, SubstreamLabel.BOOST)
    fired = {e.app_id for e in events if e.burst_tick == 6}
    assert {"a001", "a002"} <= fired
    # the same three workers appear on both apps
    weights = {(a, b): w for a, b, w in graph_rows(shared_reviewer_graph(table))}
    assert weights.get(("a001", "a002"), 0) >= 3


@pytest.mark.parametrize("app_id, n_apps, ok", [
    ("a009", 10, True), ("a1000", 1001, True), ("a010", 10, False), ("a1", 10, False),
    ("a0009", 10, False), ("A001", 10, False), ("a-01", 10, False), ("a\u0663", 10, False),
    ("a" + "1" * 5000, 10, False), ("", 10, False),
])
def test_injection_app_is_parsed_as_an_app_index(app_id, n_apps, ok):
    s = spec(n_apps=n_apps, injections=(Injection(app_id, 2, 5, 2, "boost"),))
    if ok:
        s.validate()
    else:
        with pytest.raises(ValueError, match="not in the app set"):
            s.validate()


@pytest.mark.parametrize("n_apps, ticks", [(10**10, 1), (MAX_APP_TICKS, 2), (2, 2**62)])
def test_app_ticks_past_the_limit_are_refused_before_any_id_is_built(n_apps, ticks):
    with pytest.raises(ValueError, match=f"n_apps \\* ticks must be at most {MAX_APP_TICKS}"):
        spec(n_apps=n_apps, ticks=ticks, injections=(Injection("a001", 1, 5, 2, "boost"),)
             ).validate()
    spec(n_apps=MAX_APP_TICKS, ticks=1).validate()
