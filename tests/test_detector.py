import math
import time
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewstream import detector as detector_module
from reviewstream.detector import (
    Detector,
    DetectorConfig,
    TickGapError,
    TimeRegressionError,
    read_events_jsonl,
    read_scores_csv,
    run_detector,
    write_events_jsonl,
    write_scores_csv,
)
from reviewstream.ingest import BeforeOriginError, ReviewEdge, ReviewTable
from reviewstream.partition import SubstreamLabel
from reviewstream.sketch import CountMinSketch

import _reference
from _reference import ExactScorer, brute_force_events, evaluate_burst, table_edges, to_tick

PERIOD = 10
BOOST = SubstreamLabel.BOOST
LABELS = tuple(SubstreamLabel)  # a sub-stream column holds indices into this


def cfg(**kw) -> DetectorConfig:
    base = dict(origin=0, period=PERIOD, decay=1.0, filter_threshold=math.inf)
    base.update(kw)
    return DetectorConfig(**base)


def rows(edges):
    """The edges as one table's rows, in order."""
    return ReviewTable.from_edges(edges).rows()


def feed(det: Detector, edges) -> ReviewTable:
    """Process the edges one batch of one row at a time, all from one
    table, and return the table."""
    table = ReviewTable.from_edges(edges)
    for i in range(len(edges)):
        det.process(table.rows([i]))
    return table


def mk_edges(spec: list[tuple[str, int, int]]) -> list[ReviewEdge]:
    """Build edges from (app, tick, count) in the given tick order."""
    edges = []
    n = 0
    for app, tick, count in spec:
        for i in range(count):
            edges.append(ReviewEdge(
                f"r{n}", f"u{n}", app,
                (tick - 1) * PERIOD + 1 + (i % PERIOD), 5,
            ))
            n += 1
    return edges


class TestScoreFormula:
    def test_first_tick_scores_zero(self):
        scored, _ = run_detector(rows(mk_edges([("a", 1, 7)])), cfg(), BOOST)
        assert all(s == 0.0 for s in scored.score.tolist())

    def test_hand_computed_two_tick_score(self):
        # 1 edge in tick 1, then the 10th edge of tick 2:
        # cur=10, total=11 -> (10 - 5.5)^2 * 4 / 11 = 81/11
        scored, _ = run_detector(rows(mk_edges([("a", 1, 1), ("a", 2, 10)])), cfg(), BOOST)
        assert scored.tick.tolist()[-1] == 2
        assert scored.score.tolist()[-1] == pytest.approx(81 / 11, rel=1e-12)

    def test_steady_rate_scores_zero_at_tick_close(self):
        # k edges every tick: at the k-th edge the current rate equals the
        # historical mean exactly, so the statistic vanishes
        k = 3
        scored, _ = run_detector(
            rows(mk_edges([("a", t, k) for t in range(1, 9)])), cfg(), BOOST
        )
        for t in range(2, 9):
            tick_scores = scored.score[scored.tick == t].tolist()
            assert tick_scores[-1] == 0.0

    def test_scores_are_never_negative(self):
        edges = mk_edges([("a", t, 1 + t % 4) for t in range(1, 12)])
        scored, _ = run_detector(rows(edges), cfg(decay=0.6), BOOST)
        assert all(s >= 0.0 for s in scored.score.tolist())


class TestFiltering:
    def two_tick_run(self, threshold: float) -> Detector:
        det = Detector(cfg(filter_threshold=threshold), BOOST)
        feed(det, mk_edges([("a", 1, 8), ("a", 2, 100), ("a", 3, 1)]))
        return det

    def test_anomalous_tick_merges_expected_not_raw(self):
        # final tick-2 score is (100-54)^2*4/108 ~ 78.4; with the filter
        # at 50 the burst is replaced by the prior mean 8, with it at
        # infinity the raw 100 lands in the baseline
        filtered = self.two_tick_run(threshold=50.0)
        unfiltered = self.two_tick_run(threshold=math.inf)
        assert filtered.historical_total("a") == 16.0  # 8 + 8/1
        assert unfiltered.historical_total("a") == 108.0

    def test_quiet_tick_merges_raw_count(self):
        det = Detector(cfg(), BOOST)
        feed(det, mk_edges([("a", 1, 10), ("a", 2, 1)]))
        assert det.historical_total("a") == 10.0

    def test_second_burst_scores_at_least_as_high_with_filtering(self):
        def peak_second_burst(threshold: float) -> float:
            edges = mk_edges([
                ("a", 1, 8), ("a", 2, 100), ("a", 3, 8), ("a", 4, 8),
                ("a", 5, 100),
            ])
            scored, _ = run_detector(rows(edges), cfg(decay=0.6, filter_threshold=threshold), BOOST)
            return max(scored.score[scored.tick == 5].tolist())

        assert peak_second_burst(50.0) >= peak_second_burst(math.inf)


class TestDecayAndGaps:
    def test_idle_ticks_still_decay_history(self):
        det = Detector(cfg(decay=0.5), BOOST)
        feed(det, mk_edges([("a", 1, 5), ("a", 5, 1)]))
        # tick 1 count 5 merged, then decayed over 4 transitions
        assert det.historical_total("a") == 5 * 0.5**4

    def test_no_decay_with_factor_one(self):
        det = Detector(cfg(decay=1.0), BOOST)
        feed(det, mk_edges([("a", 1, 5), ("a", 5, 1)]))
        assert det.historical_total("a") == 5.0

    @pytest.mark.parametrize("decay", [0.6, 1.0])
    def test_huge_gap_stops_at_the_fixed_point(self, decay):
        # 2**62 s is ~4.6e17 ticks; decay stops once a step changes nothing
        def history_after(gap):
            det = Detector(cfg(decay=decay), BOOST)
            feed(det, [ReviewEdge("r0", "u0", "a", 1, 5), ReviewEdge("r1", "u1", "a", 1 + gap, 5)])
            return det.historical_total("a")

        start = time.perf_counter()
        far = history_after(2**62)
        assert time.perf_counter() - start < 1.0
        oracle = ExactScorer(0, PERIOD, decay=decay, filter_threshold=math.inf)
        for ts in (1, 1 + 10**5 * PERIOD):
            oracle.process("a", ts)
        assert far == history_after(10**5 * PERIOD) == oracle.historical_total("a")

    def test_decay_work_bound_does_not_depend_on_the_batches(self, monkeypatch):
        """The decay steps of every gap count against one bound per
        detector, so a stream fails or passes whether it comes at once
        or one row per batch, and the error names the review after the
        gap that passes the bound."""
        edges = [ReviewEdge(f"r{i}", f"u{i}", "a", 1 + tick * PERIOD, 5)
                 for i, tick in enumerate([0, 3, 3000, 3001, 9000])]

        def decay_work(batches: str) -> int:
            det = Detector(cfg(decay=0.5), BOOST)
            if batches == "whole":
                det.process(rows(edges), final=True)
            else:
                det.process(feed(det, edges).rows(()), final=True)
            return det._decay_work

        work = decay_work("whole")
        assert work == decay_work("per row") > 2 * 1024 * 1000  # two gaps of ~1,000 steps
        monkeypatch.setattr(detector_module, "_DECAY_WORK_LIMIT", work)
        assert decay_work("per row") == work
        monkeypatch.setattr(detector_module, "_DECAY_WORK_LIMIT", work - 1)
        for batches in ("whole", "per row"):
            with pytest.raises(TickGapError, match="to tick 9001, before review 'r4'"):
                decay_work(batches)


class TestBurstPredicate:
    def test_fires_strictly_above_factor(self):
        assert evaluate_burst(10, 21, 2.0, 1.0) == pytest.approx(2.1)

    def test_exact_factor_does_not_fire(self):
        assert evaluate_burst(5, 10, 2.0, 1.0) is None

    def test_min_prior_guards_zero_denominator(self):
        assert evaluate_burst(0, 1, 2.0, 2.0) is None
        assert evaluate_burst(0, 5, 2.0, 1.0) == 5.0

    def test_zero_guard_disables_silence_bursts(self):
        assert evaluate_burst(0, 100, 2.0, 0.0) is None


class TestRunDetector:
    def test_empty_stream(self):
        scored, events = run_detector(rows([]), cfg(), BOOST)
        assert len(scored) == 0 and table_edges(scored.table, scored.row) == [] and events == []
        counters = scored.counters
        assert counters["sketch_occupancy"] == counters["apps_colliding_all_rows"] == 0.0

    def test_burst_after_steady_traffic(self):
        edges = mk_edges([("a", t, 2) for t in range(1, 11)] + [("a", 11, 50)])
        scored, events = run_detector(rows(edges), cfg(decay=0.6, filter_threshold=1000.0), BOOST)
        assert len(scored) == len(edges)
        assert [(e.prior_tick, e.prior_count, e.burst_count) for e in events] == [(10, 2, 50)]
        assert events[0].ratio == 25.0
        # the burst tick's closing score dominates every earlier tick's
        final_by_tick = dict(zip(scored.tick.tolist(), scored.score.tolist()))
        assert all(final_by_tick[11] > final_by_tick[t] for t in range(1, 11))
        assert max(scored.score[scored.tick == 11].tolist()) == final_by_tick[11]

    def test_final_tick_burst_is_flushed(self):
        edges = mk_edges([("a", 1, 4), ("a", 2, 40)])
        _, events = run_detector(rows(edges), cfg(), BOOST)
        assert [(e.prior_tick, e.burst_count) for e in events] == [(1, 40)]

    def test_time_regression_rejected(self):
        edges = [
            ReviewEdge("r0", "u0", "a", 95, 5),
            ReviewEdge("r1", "u1", "a", 5, 5),
        ]
        with pytest.raises(TimeRegressionError):
            run_detector(rows(edges), cfg(), BOOST)

    def test_timestamp_before_origin_rejected(self):
        with pytest.raises(BeforeOriginError):
            run_detector(rows([ReviewEdge("r0", "u0", "a", 3, 5)]), cfg(origin=50), BOOST)

    def test_memory_does_not_grow_with_stream_length(self):
        det = Detector(cfg(), BOOST)
        base = det._history.memory_bytes
        feed(det, [ReviewEdge(f"r{n}", f"u{n}", f"a{n % 20}", (n // 20) * PERIOD + 1, 5)
                   for n in range(199 * 20)])
        assert det._history.memory_bytes == base
        assert len(det._slots) == 20 and len(det._held) == 40  # the last two ticks' edges

    def test_process_after_finish_is_rejected(self):
        det = Detector(cfg(), BOOST)
        det.process(rows(mk_edges([("a", 1, 2)])), final=True)
        with pytest.raises(RuntimeError, match="detector already finished"):
            det.process(rows(mk_edges([("a", 2, 1)])))

    def test_batches_of_another_table_are_rejected(self):
        det = Detector(cfg(), BOOST)
        det.process(rows(mk_edges([("a", 1, 2)])))
        with pytest.raises(ValueError, match="one table"):
            det.process(rows(mk_edges([("a", 2, 1)])))

    def test_streams_of_two_tables_do_not_concatenate(self):
        one, _ = run_detector(rows(mk_edges([("a", 1, 2)])), cfg(), BOOST)
        two, _ = run_detector(rows(mk_edges([("a", 1, 2)])), cfg(), BOOST)
        with pytest.raises(ValueError, match="different tables"):
            one + two

    def test_scores_of_a_sub_stream_are_its_float64_column(self):
        table = ReviewTable.from_edges(mk_edges([("a", 1, 2), ("b", 2, 2)]))
        boost, _ = run_detector(table.rows([0, 2]), cfg(), BOOST)
        sink, _ = run_detector(table.rows([1, 3]), cfg(), SubstreamLabel.SINK)
        both = boost + sink
        for label, part in ((BOOST, boost), (SubstreamLabel.SINK, sink)):
            scores = both.scores(label)
            assert scores.dtype == np.float64
            assert scores.tolist() == part.score.tolist()


def random_stream(rng: np.random.Generator, n_apps: int, ticks: int, n_edges: int):
    apps = [f"app{i}" for i in range(n_apps)]
    raw = sorted(
        (int(rng.integers(1, ticks * PERIOD + 1)), apps[int(rng.integers(n_apps))])
        for _ in range(n_edges)
    )
    return [ReviewEdge(f"r{i}", f"u{i}", app, ts, 5) for i, (ts, app) in enumerate(raw)]


class TestOracleEquivalence:
    def test_scores_match_exact_counter_reimplementation(self):
        # collision-free geometry: few apps, wide sketch
        config = cfg(decay=0.6, filter_threshold=8.0, rows=4, cols=4096)
        rng = np.random.default_rng(1234)
        for _ in range(30):
            edges = random_stream(rng, n_apps=12, ticks=20, n_edges=400)
            scored, _ = run_detector(rows(edges), config, BOOST)
            oracle = ExactScorer(0, PERIOD, decay=0.6, filter_threshold=8.0)
            expected = [oracle.process(e.app_id, e.timestamp) for e in edges]
            got = scored.score.tolist()
            assert got == expected  # bit-identical, not approximate

    def test_events_match_brute_force_recount(self):
        config = cfg(decay=0.6, filter_threshold=1000.0, burst_factor=2.0, min_prior=1.0)
        rng = np.random.default_rng(99)
        for _ in range(25):
            edges = random_stream(rng, n_apps=8, ticks=15, n_edges=250)
            _, events = run_detector(rows(edges), config, BOOST)
            got = sorted(
                (e.app_id, e.prior_tick, e.prior_count, e.burst_count) for e in events
            )
            assert got == brute_force_events(edges, 0, PERIOD, 2.0, 1.0)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(burst_factor=1.0),
        dict(burst_factor=0.5),
        dict(decay=-0.1),
        dict(decay=1.5),
        dict(filter_threshold=0.0),
        dict(min_prior=-1.0),
        dict(period=0),
        dict(rows=0),
        dict(cols=0),
        dict(period=-86_400),
        dict(burst_factor=math.nan),
        dict(decay=math.nan),
        dict(filter_threshold=math.nan),
        dict(min_prior=math.nan),
        dict(min_prior=5e-324),
        dict(min_prior=2.0**-961),
        dict(origin=-(2**63) - 1),
        dict(origin=2**63),
        dict(rows=65, cols=1),
        dict(rows=1, cols=2**24 + 1),
        dict(rows=64, cols=2**18 + 1),
        dict(rows=4_000_000_000_000_000_000),
        dict(cols=1_000_000_000_000_000),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            cfg(**bad).validate()

    def test_min_prior_of_zero_or_past_the_overflow_floor_is_valid(self):
        cfg(min_prior=0.0).validate()
        cfg(min_prior=2.0**-960).validate()
        assert math.isfinite((2**63 - 1) / 2.0**-960)

    def test_sketch_geometry_up_to_64_rows_and_2_24_counters_is_valid(self):
        cfg(rows=64, cols=2**18).validate()
        cfg(rows=1, cols=2**24).validate()

    def test_defaults_are_valid(self):
        DetectorConfig(origin=0).validate()
        DetectorConfig(origin=-(2**63)).validate()
        DetectorConfig(origin=2**63 - 1).validate()


class TestSerialization:
    def test_scores_csv_round_trip(self, tmp_path):
        edges = mk_edges([("a", 1, 2), ("b", 2, 3)])
        config = cfg(decay=0.6)
        scored, _ = run_detector(rows(edges), config, BOOST)
        path = tmp_path / "scores.csv"
        write_scores_csv(scored, config, path)
        read, header_config = read_scores_csv(path, scored.table)
        assert header_config == config.to_dict()
        assert _rows(read) == _rows(scored)
        assert read.score.tolist() == scored.score.tolist()

    def test_events_jsonl_round_trip(self, tmp_path):
        edges = mk_edges([("a", 1, 3), ("a", 2, 30)])
        _, events = run_detector(rows(edges), cfg(), BOOST)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, path)
        assert read_events_jsonl(path) == events

    def test_events_jsonl_blank_lines_are_skipped(self, tmp_path):
        edges = mk_edges([("a", 1, 3), ("b", 1, 3), ("a", 2, 30), ("b", 2, 30)])
        _, events = run_detector(rows(edges), cfg(), BOOST)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("\n" + " \n".join(lines) + "\t\n", encoding="utf-8")
        assert len(events) == 2 and read_events_jsonl(path) == events

    def test_scores_csv_row_scored_twice_is_rejected(self, tmp_path):
        scored, _ = run_detector(rows(mk_edges([("a", 1, 2), ("b", 2, 3)])), cfg(), BOOST)
        path = tmp_path / "scores.csv"
        write_scores_csv(scored, cfg(), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[3:4]), encoding="utf-8")
        review_id = lines[3].split(",")[0]
        with pytest.raises(ValueError, match=f"^line {len(lines) + 1}: review_id "
                                             f"'{review_id}' is scored twice$"):
            read_scores_csv(path, scored.table)


# ---------------------------------------------------------------------------
# The batch core against the per-edge detector it replaced, bit for bit.

@st.composite
def scored_runs(draw):
    """A config and a stream for it: few sketch columns so apps collide,
    low filter thresholds so merges are filtered, repeated timestamps for
    bursts, empty ticks, and in some streams gaps of up to 2**40 ticks.
    A far stream starts
    at tick 3.1e9 or beyond, past 2**53 when the origin is -2**63 and the
    period 1 s; a near one at tick 1, where a filtered merge's expected
    count is large enough to show in the bits of later scores."""
    period = draw(st.sampled_from([1, 7, 86_400]))
    far = draw(st.sampled_from([False, False, True]))
    config = DetectorConfig(
        origin=draw(st.sampled_from([-(10**12), -(2**63)])) if far else 0,
        period=period,
        burst_factor=draw(st.sampled_from([1.5, 2.0])),
        decay=draw(st.sampled_from([0.0, 0.6, 0.6, 1.0, 1.0])),
        filter_threshold=draw(st.sampled_from([0.5, 0.5, 3.0, 3.0, 1000.0, math.inf])),
        min_prior=draw(st.sampled_from([0.0, 1.0, 2.5])),
        rows=draw(st.integers(1, 3)),
        cols=draw(st.integers(2, 8)),
        sketch_seed=draw(st.integers(0, 2**16)),
    )
    n_apps = draw(st.integers(1, 8))
    huge = [10**6 * period, 2**40 * period] if draw(st.booleans()) else []
    gaps = st.sampled_from([0] * 6 + [1] * 2 + [period] * 5 + [3 * period] * 2 + huge)
    steps = draw(st.lists(st.tuples(st.integers(0, n_apps - 1), gaps), min_size=20, max_size=60))
    timestamp = draw(st.sampled_from([3_100_000_000, 2**62])) if far else 0
    edges = []
    for i, (app, gap) in enumerate(steps):
        timestamp = min(timestamp + gap, 2**63 - 1)
        edges.append(ReviewEdge(f"r{i}", f"u{i}", f"app{app}", timestamp, 5))
    cuts = sorted(draw(st.lists(st.integers(0, len(edges)), max_size=6)))
    return config, edges, cuts


def _rows(scored):
    """(review id, tick, sub-stream) of each scored edge, from the columns."""
    return list(zip(map(scored.table.review_id.__getitem__, scored.row.tolist()),
                    scored.tick.tolist(),
                    [LABELS[code] for code in scored.substream.tolist()]))


def _bits(scored):
    return [(*row, s.hex()) for row, s in zip(_rows(scored), scored.score.tolist())]


@settings(max_examples=250, deadline=None)
@given(scored_runs())
def test_batches_match_the_per_edge_detector(run):
    config, edges, cuts = run
    reference = _reference.Detector(config, BOOST)
    expected, prefix_history = [], {}
    for i, edge in enumerate(edges):
        if i in cuts:
            prefix_history[i] = {e.app_id: reference.historical_total(e.app_id) for e in edges}
        _, substream, tick, score = reference.process_edge(edge)
        expected.append((edge.review_id, tick, substream, score.hex()))
    events = reference.finish()
    apps = sorted({e.app_id for e in edges})
    history = [reference.historical_total(a) for a in apps]

    table = ReviewTable.from_edges(edges)
    whole, whole_events = run_detector(table.rows(), config, BOOST)
    split = Detector(config, BOOST)
    split_parts = []
    for lo, hi in zip([0, *cuts], [*cuts, len(edges)]):
        if lo in prefix_history:
            assert {a: split.historical_total(a) for a in prefix_history[lo]} == prefix_history[lo]
        split_parts.append(split.process(table.rows(range(lo, hi))))
    single = Detector(config, BOOST)
    single_parts = [single.process(table.rows([i])) for i in range(len(edges))]
    assert _bits(whole) == expected
    assert whole_events == events
    for detector, parts in ((split, split_parts), (single, single_parts)):
        last = detector.process(table.rows(()), final=True)
        scored_parts, event_parts = zip(*parts, last)
        assert _bits(reduce(add, scored_parts)) == expected
        assert [event for batch in event_parts for event in batch] == whole_events == events
        assert last[0].counters == whole.counters  # the run's counters, sketch use included
        assert [detector.historical_total(a) for a in apps] == history


@settings(max_examples=100, deadline=None)
@given(scored_runs())
def test_sketch_use_matches_a_brute_force_count(run):
    """The final batch's counters give the share of nonzero history
    counters, read from the per-edge detector, and of the apps that share
    their column with another app in every row, recounted over
    ``CountMinSketch.locate``; earlier batches give neither."""
    config, edges, cuts = run
    reference = _reference.Detector(config, BOOST)
    for edge in edges:
        reference.process_edge(edge)
    reference.finish()
    sketch = CountMinSketch(config.rows, config.cols, config.row_seeds())
    slots = {app: sketch.locate(app) for app in {e.app_id for e in edges}}
    colliding = sum(all(any(other != app and other_slots[r] == own[r]
                            for other, other_slots in slots.items())
                        for r in range(config.rows))
                    for app, own in slots.items())
    expected = {
        "sketch_occupancy": np.count_nonzero(reference._history.counters)
        / (config.rows * config.cols),
        "apps_colliding_all_rows": colliding / len(slots),
    }
    table = ReviewTable.from_edges(edges)
    detector = Detector(config, BOOST)
    parts = [detector.process(table.rows(range(lo, hi)))[0]
             for lo, hi in zip([0, *cuts], [*cuts, len(edges)])]
    last, _ = detector.process(table.rows(()), final=True)
    assert not any(set(expected) & set(part.counters) for part in parts)
    assert {key: last.counters[key] for key in expected} == expected


def _python_score(cur: float, hist: float, tick: int) -> float:
    total = hist + cur
    if tick <= 1 or total <= 0.0:
        return 0.0
    return (cur - total / tick) ** 2 * (tick * tick) / (total * (tick - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_score_expression_matches_python(seed):
    # Squaring with x * x, as numpy's ** 2 does, differs from Python's ** 2
    # (libm pow) in the last bit for about one value in a thousand.
    rng = np.random.default_rng(seed)
    n = 2000
    cur = rng.integers(1, 10**4, n).astype(np.float64)
    hist = rng.integers(0, 10**4, n) * 0.6 ** rng.integers(0, 40, n)  # decayed counts
    ticks = [int(t) for t in np.where(rng.random(n) < 0.5, rng.integers(1, 60, n),
                                      rng.integers(1, 2**63 - 1, n, dtype=np.int64))]
    ticks[0] = 2**64 - 1
    factors = np.array([(float(t), float(t * t), float(t - 1)) for t in ticks]).T
    with np.errstate(divide="ignore", invalid="ignore"):
        got = detector_module._chi2(cur, hist, *factors)
    assert [x.hex() for x in got.tolist()] == [
        _python_score(c, h, t).hex() for c, h, t in zip(cur.tolist(), hist.tolist(), ticks)]


def test_origin_at_the_int64_floor_gives_exact_ticks():
    config = cfg(origin=-(2**63), period=1)
    edges = [ReviewEdge("r0", "u0", "a", 0, 5), ReviewEdge("r1", "u1", "a", 2**63 - 1, 5)]
    scored, _ = run_detector(rows(edges), config, BOOST)
    assert scored.tick.tolist() == [to_tick(e.timestamp, -(2**63), 1) for e in edges]
    assert scored.tick.tolist()[-1] == 2**64 - 1


@st.composite
def faulty_streams(draw):
    """A stream whose steps may go back in time or before the origin, and
    the cuts that split it into batches."""
    period = draw(st.sampled_from([1, 7, 86_400]))
    origin = draw(st.sampled_from([0, 10**9, 2**62]))
    timestamp = origin + draw(st.integers(0, 8 * period))
    edges = []
    kinds = ["same"] + ["next"] * 4 + ["back"] * 2 + ["before"] * draw(st.integers(0, 1))
    steps = st.sampled_from(kinds)
    for i, step in enumerate(draw(st.lists(steps, min_size=1, max_size=30))):
        if step == "next":
            timestamp += draw(st.integers(1, 2 * period))
        elif step == "back":
            timestamp -= draw(st.integers(1, 3 * period))
        stamp = origin - draw(st.integers(1, 2 * period)) if step == "before" else timestamp
        edges.append(ReviewEdge(f"r{i}", f"u{i}", f"app{i % 3}", stamp, 5))
    cuts = sorted(draw(st.lists(st.integers(0, len(edges)), max_size=6)))
    return cfg(origin=origin, period=period), edges, cuts


def _first_error(feed) -> tuple[type, str] | None:
    try:
        feed()
    except (BeforeOriginError, TimeRegressionError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(faulty_streams())
def test_batches_raise_the_per_edge_detectors_error(run):
    """The first edge before the origin or with a passed tick raises the
    error, with the message, that the per-edge detector raises for it."""
    config, edges, cuts = run
    reference = _reference.Detector(config, BOOST)
    expected = _first_error(lambda: [reference.process_edge(edge) for edge in edges])
    detector = Detector(config, BOOST)
    table = ReviewTable.from_edges(edges)
    batches = [table.rows(range(lo, hi)) for lo, hi in zip([0, *cuts], [*cuts, len(edges)])]
    assert _first_error(lambda: [detector.process(batch) for batch in batches]) == expected
