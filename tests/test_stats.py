import csv
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr  # the tails' oracle
from scipy.stats import t as t_dist  # the p-value oracle; welch_t does not import it

from _reference import graph_rows, shared_reviewer_weights
from reviewstream import stats as stats_module
from reviewstream.ingest import AppRecord, ReviewEdge, ReviewTable
from reviewstream.partition import partition_stream
from reviewstream.stats import (
    DegenerateSamplesError,
    EmptySampleError,
    TailHelper,
    TooSmallError,
    count_distinct,
    ecdf,
    pair_blocks,
    shared_reviewer_graph,
    summarize,
    welch_t,
)


def edge(review_id, reviewer, app, score=5):
    return ReviewEdge(review_id, reviewer, app, 0, score)


def rows_of(edges):
    return ReviewTable.from_edges(edges).rows()


def graph_of(edges):
    return shared_reviewer_graph(ReviewTable.from_edges(edges))


class TestWelch:
    def test_identical_samples(self):
        result = welch_t([1, 2, 3], [1, 2, 3])
        assert result.t == 0.0
        assert result.p_one_sided == 0.5

    def test_hand_computed_case(self):
        # means 2 and 5, unit variances, se = sqrt(2/3)
        result = welch_t([1, 2, 3], [4, 5, 6])
        assert result.t == pytest.approx(-3.674, abs=1e-3)
        assert result.df == pytest.approx(4.000, abs=1e-3)
        assert result.p_one_sided == pytest.approx(0.98934, abs=1e-4)
        assert result.mean_a == 2.0 and result.mean_b == 5.0
        assert result.var_a == 1.0 and result.var_b == 1.0

    def test_directional_p_value(self):
        result = welch_t([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
        assert result.t > 0
        assert result.p_one_sided < 0.01
        assert result.p_two_sided == pytest.approx(2 * result.p_one_sided)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            welch_t([1.0], [1.0, 2.0])

    def test_degenerate(self):
        with pytest.raises(DegenerateSamplesError):
            welch_t([5.0, 5.0, 5.0], [7.0, 7.0])

    def test_one_constant_sample_is_fine(self):
        result = welch_t([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        assert result.t > 0

    @pytest.mark.parametrize("a, b", [
        ([0.0, 1e-160], [0.0, 1e-160]),  # df denominator underflows to 0
        ([1e308, -1e308], [1e308, -1e308]),  # variances overflow
        ([1e308, 1e308], [0.0, 1.0]),  # the mean overflows
        ([0.0, 1e154], [0.0, 1e154]),  # the df numerator overflows
        ([1e300, 1e300], [0.0, 1e-10]),  # t overflows: 1e300 / 5e-11
    ])
    def test_out_of_float_range_is_degenerate(self, a, b):
        with pytest.raises(DegenerateSamplesError):
            welch_t(a, b)


samples = st.lists(
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=30,
).filter(lambda xs: np.var(xs) > 1e-9)


@settings(max_examples=80)
@given(a=samples, b=samples)
def test_welch_antisymmetry(a, b):
    fwd = welch_t(a, b)
    rev = welch_t(b, a)
    assert rev.t == pytest.approx(-fwd.t, rel=1e-9, abs=1e-12)
    assert rev.p_one_sided == pytest.approx(1 - fwd.p_one_sided, abs=1e-9)


@settings(max_examples=80)
@given(a=samples, b=samples, shift=st.floats(-100, 100, allow_nan=False))
def test_welch_location_shift_invariance(a, b, shift):
    base = welch_t(a, b)
    shifted = welch_t([x + shift for x in a], [x + shift for x in b])
    assert shifted.t == pytest.approx(base.t, rel=1e-6, abs=1e-9)
    assert shifted.df == pytest.approx(base.df, rel=1e-6)


@settings(max_examples=200)
@given(a=samples, b=samples)
def test_welch_p_values_match_scipy_stats_bit_for_bit(a, b):
    result = welch_t(a, b)
    assert result.p_one_sided == float(t_dist.sf(result.t, result.df))
    assert result.p_two_sided == float(2.0 * t_dist.sf(abs(result.t), result.df))


def run_python(code: str) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter on ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_imports_load_no_scipy_stats():
    """A bare package import loads no scipy module; a t-test loads scipy
    but not the slow-to-import ``scipy.stats``."""
    code = (
        "import json, sys\n"
        "import reviewstream\n"
        "bare = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "reviewstream.welch_t([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])\n"
        "print(json.dumps({'bare': bare, 'stats': 'scipy.stats' in sys.modules}))\n"
    )
    assert run_python(code) == {"bare": [], "stats": False}


def test_pipeline_loads_no_scipy_sparse(synth_files, tmp_path):
    """A whole ``pipeline``, pair analysis of the injected campaign
    included, runs without ``scipy.sparse``."""
    reviews, _, catalog = synth_files
    argv = ["pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(tmp_path / "out"), "--origin", "0"]
    code = (
        "import json, sys\n"
        "from reviewstream.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'sparse': 'scipy.sparse' in sys.modules}))\n"
    )
    assert run_python(code) == {"code": 0, "sparse": False}
    report = json.loads((tmp_path / "out" / "clusters.json").read_text(encoding="utf-8"))
    assert any(entry["pair_count"] for entry in report)


def hex_fields(welch: dict) -> dict:
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in welch.items()}


def test_pipeline_process_loads_no_scipy(synth_files, tmp_path):
    """``pipeline`` leaves the scipy import to its helper process, and
    records the t-test that ``welch_t`` computes in process."""
    reviews, _, catalog = synth_files
    out = tmp_path / "out"
    argv = ["pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(out), "--origin", "0"]
    code = (
        "import json, sys\n"
        "from reviewstream.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'scipy': [m for m in sys.modules\n"
        "                                          if m.startswith('scipy')]}))\n"
    )
    assert run_python(code) == {"code": 0, "scipy": []}
    with open(out / "scores.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    boost, sink = ([float(row["score"]) for row in rows if row["substream"] == label]
                   for label in ("boost", "sink"))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert hex_fields(summary["welch_boost_vs_sink"]) == hex_fields(asdict(welch_t(boost, sink)))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"]["ttest"]["helper_peak_rss_mb"] > 0


def test_stats_ttest_process_loads_no_scipy(tmp_path):
    """``stats ttest`` also leaves the scipy import to its helper process,
    and prints the t-test that ``welch_t`` computes in process."""
    a, b = [0.5, 1.25, 3.0, 2.0, 7.5, 1e-3], [0.25, 0.5, 1.0, 0.75, 0.125]
    for name, values in (("a.csv", a), ("b.csv", b)):
        (tmp_path / name).write_text("value\n" + "".join(f"{v!r}\n" for v in values),
                                     encoding="utf-8")
    argv = ["stats", "ttest", "--a", f"{tmp_path / 'a.csv'}:value",
            "--b", f"{tmp_path / 'b.csv'}:value"]
    code = (
        "import contextlib, io, json, sys\n"
        "from reviewstream.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'scipy': [m for m in sys.modules\n"
        "                                          if m.startswith('scipy')],\n"
        "                  'printed': json.loads(out.getvalue())}))\n"
    )
    result = run_python(code)
    assert {key: result[key] for key in ("code", "scipy")} == {"code": 0, "scipy": []}
    welch = welch_t(a, b)
    assert [result["printed"][key].hex() for key in ("t", "df", "p")] == \
        [welch.t.hex(), welch.df.hex(), welch.p_one_sided.hex()]


def test_no_process_outlives_main_and_every_fallback_writes_the_same_bytes(synth_files,
                                                                           tmp_path):
    """After each run no child is left, running or unreaped: a success, an
    exit 2 after the fork, an exit 3 before it, an interrupt, a helper
    killed before it answers, a helper that cannot load ``stdtr``, a fork
    that fails, no ``os.fork`` at all and another thread running. The last
    five take the tails in process and write the same outputs. ``stats
    ttest`` with no ``os.fork`` and with its helper killed prints the same
    bytes as with a helper that answers."""
    reviews, _, catalog = synth_files
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(reviews.read_text(encoding="utf-8") + "not json\n" * 50, encoding="utf-8")
    base = ["pipeline", "--catalog", str(catalog), "--origin", "0"]
    runs = {name: base + ["--reviews", str(dirty if name == "data" else reviews),
                          "--out-dir", str(tmp_path / name)]
            for name in ("ok", "load_fails", "data", "interrupted", "killed", "fork_fails",
                         "no_fork", "threaded")}
    runs["config"] = runs["ok"] + ["--top", "0"]
    ttest = ["stats", "ttest", "--a", f"{tmp_path / 'ok' / 'cdf_boost.csv'}:value",
             "--b", f"{tmp_path / 'ok' / 'cdf_sink.csv'}:value"]
    runs.update({f"ttest_{name}": ttest for name in ("ok", "no_fork", "killed")})
    code = f"""
import contextlib, errno, io, json, os, signal, sys, threading
from reviewstream import cli

class RefuseUfuncsInChildren:  # the helper's bare load fails; this process's import works
    parent = os.getpid()
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and os.getpid() != self.parent and refuse:
            raise ImportError("refused in a child")
sys.meta_path.insert(0, RefuseUfuncsInChildren())

forks = []
fork = os.fork
def counted_fork():
    forks.append(1)
    return fork()
def failed_fork():
    forks.append(1)
    raise OSError(errno.EAGAIN, "no process to spare")
welch_t, cluster_report = cli.welch_t, cli._cluster_report
def kill_first(a, b, tails=None):
    os.kill(tails.pid, signal.SIGKILL)
    return welch_t(a, b, tails=tails)
def interrupt(*args):
    raise KeyboardInterrupt

results, printed = {{}}, {{}}
for name, argv in {runs!r}.items():
    kind = name.removeprefix("ttest_")
    os.fork = {{"fork_fails": failed_fork, "no_fork": None}}.get(kind, counted_fork)
    if os.fork is None:
        del os.fork
    cli.welch_t = kill_first if kind == "killed" else welch_t
    cli._cluster_report = interrupt if name == "interrupted" else cluster_report
    refuse = name == "load_fails"
    before = len(forks)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if name == "threaded":
        waiter.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    except KeyboardInterrupt:
        code = "interrupted"
    release.set()
    if name == "threaded":
        waiter.join()
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = None
    results[name] = [code, len(forks) - before, left]
    printed[name] = out.getvalue()
print(json.dumps([results, printed]))
"""
    results, printed = run_python(code)
    assert results == {
        "ok": [0, 1, None], "load_fails": [0, 1, None], "data": [2, 1, None],
        "config": [3, 0, None],
        "interrupted": ["interrupted", 1, None], "killed": [0, 1, None],
        "fork_fails": [0, 1, None], "no_fork": [0, 0, None], "threaded": [0, 0, None],
        "ttest_ok": [0, 1, None], "ttest_no_fork": [0, 0, None], "ttest_killed": [0, 1, None]}
    assert printed["ttest_ok"].startswith('{"df": ')
    assert printed["ttest_no_fork"] == printed["ttest_killed"] == printed["ttest_ok"]
    for name in ("ok", "load_fails", "killed", "fork_fails", "no_fork", "threaded"):
        summary = (tmp_path / name / "summary.json").read_bytes()
        assert summary == (tmp_path / "ok" / "summary.json").read_bytes()
        stages = json.loads((tmp_path / name / "manifest.json").read_text())["stages"]
        assert (stages["ttest"]["helper_peak_rss_mb"] is None) == (name != "ok")


TAIL_GRID = [(df, t) for df in (1.0, 1.0 + 2.0 ** -40, 2.0 - 2.0 ** -40, 2.0, 1e6 + 0.5)
             for t in (-0.0, 0.0, -1.5, 1.5, -40.0, 40.0, 1e154, 1e308)]


def test_tail_helper_answers_in_process_stdtr_bit_for_bit():
    answers = []
    for df, t in TAIL_GRID:
        with TailHelper() as tails:
            answers.append(tails(df, t))
            assert tails(df, t) is None  # it answers once
        assert tails.peak_rss_mb > 0
    expected = [(float(stdtr(df, -t)), float(2.0 * stdtr(df, -abs(t)))) for df, t in TAIL_GRID]
    assert [[p.hex() for p in pair] for pair in answers] == \
        [[p.hex() for p in pair] for pair in expected]
    upper = [p for p, _ in expected]
    assert 0.0 in upper and any(0.0 < p < sys.float_info.min for p in upper)


def test_tail_helper_loads_only_the_compiled_stdtr():
    """The helper's loader, run in a fresh interpreter, leaves scipy's array
    API layer, ``numpy.f2py``, ``numpy.testing`` and ``scipy.stats``
    unloaded, and its ``stdtr`` gives this process's ``scipy.special.stdtr``
    bits."""
    slow = ["scipy.special._support_alternative_backends", "scipy._lib._array_api",
            "numpy.f2py", "numpy.testing", "scipy.stats"]
    code = (
        "import json, sys\n"
        "from reviewstream import stats\n"
        "stats._bare_scipy_special()\n"
        f"tails = [[p.hex() for p in stats.student_t_tails(df, t)] for df, t in {TAIL_GRID!r}]\n"
        f"print(json.dumps({{'loaded': [m for m in {slow!r} if m in sys.modules],\n"
        "                  'tails': tails}))\n"
    )
    expected = [[float(stdtr(df, -t)).hex(), float(2.0 * stdtr(df, -abs(t))).hex()]
                for df, t in TAIL_GRID]
    assert run_python(code) == {"loaded": [], "tails": expected}


class TestEcdf:
    def test_basic_fractions(self):
        points = ecdf([1.0, 2.0, 3.0])
        assert points.values.tolist() == [1.0, 2.0, 3.0]
        assert points.fractions[1] == pytest.approx(2 / 3)  # F(2.0)
        assert points.values[0] > 0.5  # F(0.5) = 0: no support point at or below it

    def test_all_equal_collapses_to_one_point(self):
        points = ecdf([5.0, 5.0, 5.0])
        assert points.values.tolist() == [5.0]
        assert points.fractions.tolist() == [1.0]

    def test_ends_at_exactly_one(self):
        points = ecdf([3.0, 1.0, 2.0, 2.0])
        assert points.fractions[-1] == 1.0
        assert np.all(np.diff(points.values) > 0)
        assert np.all(np.diff(points.fractions) > 0)

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            ecdf([])

    def test_uniform_sample_within_ks_bound(self):
        # Kolmogorov-Smirnov: D_n <= 1.63/sqrt(n) at the 1% level
        n = 1000
        draws = np.sort(np.random.default_rng(7).uniform(size=n))
        upper = np.arange(1, n + 1) / n - draws
        lower = draws - np.arange(0, n) / n
        d_stat = max(upper.max(), lower.max())
        points = ecdf(draws)
        assert points.values.tolist() == draws.tolist()  # F(draws[i]) = fractions[i]
        assert points.fractions.tolist() == pytest.approx((np.arange(1, n + 1) / n).tolist())
        assert d_stat < 1.63 / np.sqrt(n)


@settings(max_examples=60)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50))
def test_ecdf_last_fraction_is_one(values):
    assert ecdf(values).fractions[-1] == 1.0


class TestSharedReviewerGraph:
    def test_one_shared_reviewer(self):
        edges = [edge("r1", "u1", "A"), edge("r2", "u1", "B")]
        assert graph_rows(graph_of(edges)) == [("A", "B", 1)]

    def test_repeat_reviews_count_once(self):
        edges = [edge("r1", "u1", "A"), edge("r2", "u1", "A"), edge("r3", "u1", "B")]
        graph = graph_rows(graph_of(edges))
        assert graph[0][2] == 1

    def test_no_self_loops_or_zero_weights(self):
        edges = [edge("r1", "u1", "A"), edge("r2", "u2", "B")]
        assert graph_rows(graph_of(edges)) == []

    def test_empty_and_unshared_give_no_pairs(self):
        assert len(graph_of([])) == 0
        edges = [edge("r1", "u1", "A"), edge("r2", "u2", "B"), edge("r3", "u2", "B")]
        assert len(graph_of(edges)) == 0

    def test_columns_and_rows(self):
        edges = [edge("r1", "u1", "B"), edge("r2", "u1", "A"), edge("r3", "u2", "A"),
                 edge("r4", "u2", "B"), edge("r5", "u2", "C")]
        graph = graph_of(edges)
        assert len(graph) == len(graph.app_a) == len(graph.app_b) == len(graph.weight) == 3
        assert graph_rows(graph) == [("A", "B", 2), ("A", "C", 1), ("B", "C", 1)]
        assert [type(w) for _, _, w in graph_rows(graph)] == [int, int, int]

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7])
    def test_blocks_split_reviewers(self, monkeypatch, block):
        # u1 and u2 each expand 15 pair increments over the same six apps, so
        # both reviewers span several blocks and every pair's two increments
        # can land in different blocks.
        monkeypatch.setattr(stats_module, "_PAIR_BLOCK_ENTRIES", block)
        apps = ["f", "a", "e", "b", "d", "c"]
        edges = [edge(f"r{u}{i}", f"u{u}", app) for u in (1, 2) for i, app in enumerate(apps)]
        edges += [edge("r31", "u3", "a"), edge("r32", "u3", "z"), edge("r4", "u4", "q")]
        got = graph_rows(graph_of(edges))
        assert got == shared_reviewer_weights(edges)
        assert sum(w for _, _, w in got) == 31

    @settings(max_examples=150)
    @given(
        reviews=st.lists(st.tuples(
            st.integers(0, 8),
            st.one_of(
                st.sampled_from(["a", "ab", "abc", "a,b", 'a"b', '"', "a\nb", " a",
                                 "\u00e9", "\u00e9t\u00e9", "\u65e5\u672c", "Z"]),
                st.text(min_size=1, max_size=4),
            ),
        ), max_size=60),
        block=st.sampled_from([1, 2, 5, stats_module._PAIR_BLOCK_ENTRIES]),
    )
    def test_matches_reference(self, reviews, block):
        edges = [edge(f"r{i}", f"u{u}", app) for i, (u, app) in enumerate(reviews)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats_module, "_PAIR_BLOCK_ENTRIES", block)
            graph = graph_rows(graph_of(edges))
        assert graph == shared_reviewer_weights(edges)
        assert all(type(w) is int for _, _, w in graph)

    @settings(max_examples=150)
    @given(reviews=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15)), max_size=80),
           block=st.integers(1, 7))
    def test_many_blocks_merge_to_the_reference(self, reviews, block):
        # Few reviewers of many apps: up to hundreds of blocks, merged in
        # levels whose sizes need not be powers of two.
        edges = [edge(f"r{i}", f"u{u}", f"a{a}") for i, (u, a) in enumerate(reviews)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats_module, "_PAIR_BLOCK_ENTRIES", block)
            graph = graph_rows(graph_of(edges))
        assert graph == shared_reviewer_weights(edges)

    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=40,
    ))
    def test_matches_set_intersection_oracle(self, pairs):
        edges = [
            edge(f"r{i}", f"u{u}", f"a{a}") for i, (u, a) in enumerate(pairs)
        ]
        got = {(a, b): w for a, b, w in graph_rows(graph_of(edges))}
        # oracle: direct pairwise intersection of reviewer sets
        reviewers: dict[str, set[str]] = {}
        for e in edges:
            reviewers.setdefault(e.app_id, set()).add(e.reviewer_id)
        apps = sorted(reviewers)
        expected = {}
        for i in range(len(apps)):
            for j in range(i + 1, len(apps)):
                weight = len(reviewers[apps[i]] & reviewers[apps[j]])
                if weight:
                    expected[(apps[i], apps[j])] = weight
        assert got == expected


def expanded(groups, block) -> list[list[tuple[int, int]]]:
    """``pair_blocks`` of ``groups`` as one list of (left, right) per block."""
    return [list(zip(left.tolist(), right.tolist()))
            for left, right in pair_blocks(np.asarray(groups, dtype=np.int64), block)]


@settings(max_examples=200)
@given(sizes=st.lists(st.integers(0, 6), max_size=8), block=st.integers(1, 7))
def test_pair_blocks_match_brute_force(sizes, block):
    groups = [g for g, size in enumerate(sizes) for _ in range(size)]
    blocks = expanded(groups, block)
    assert [pair for b in blocks for pair in b] == [
        (i, j) for i in range(len(groups)) for j in range(i + 1, len(groups))
        if groups[i] == groups[j]]
    assert all(len(b) == block for b in blocks[:-1]) and all(0 < len(b) <= block for b in blocks)


def test_pair_blocks_cut_a_group():
    # Group 0 (positions 0-3) expands 6 pairs, so the first block of 4 ends
    # inside it, after position 1's first partner.
    assert expanded([0, 0, 0, 0, 1, 1], 4) == [[(0, 1), (0, 2), (0, 3), (1, 2)],
                                            [(1, 3), (2, 3), (4, 5)]]


@settings(max_examples=200)
@given(blocks=st.lists(st.lists(st.integers(-3, 20), max_size=12), max_size=12))
def test_count_distinct_matches_a_counter(blocks):
    keys, counts = count_distinct(np.array(b, dtype=np.int64) for b in blocks)
    want = Counter(v for b in blocks for v in b)
    assert keys.tolist() == sorted(want)
    assert counts.tolist() == [want[k] for k in sorted(want)]
    assert keys.dtype == counts.dtype == np.int64


class TestSummarize:
    CATALOG = {"A": AppRecord("A", 4.0)}

    def test_counts(self):
        edges = [
            edge("r1", "u1", "A", score=5),
            edge("r2", "u1", "A", score=1),
            edge("r3", "u2", "A", score=4),
        ]
        summary = summarize(partition_stream(rows_of(edges), self.CATALOG))
        assert asdict(summary) == {
            "reviews": 3, "reviewers": 2, "apps": 1,
            "boost": 2, "sink": 1, "unpartitioned": 0,
        }

    def test_empty_stream(self):
        summary = summarize(partition_stream(rows_of([]), self.CATALOG))
        assert summary.reviews == 0 and summary.reviewers == 0 and summary.apps == 0

    def test_counts_only_the_rows_of_the_stream(self):
        """Reviewers and apps of table rows outside the stream are not counted."""
        table = ReviewTable.from_edges([edge("r1", "u1", "A"), edge("r2", "u2", "B"),
                                        edge("r3", "u3", "A")])
        summary = summarize(partition_stream(table.rows([2, 0]), self.CATALOG))
        assert (summary.reviews, summary.reviewers, summary.apps) == (2, 2, 1)
