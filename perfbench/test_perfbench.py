"""Tests of the benchmark itself: generator, span arithmetic, gate.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json

import gate
import pytest
import workloads
from spans import Recorder, Span, self_time, union_length


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    first = workloads.generate(name, 5, tmp_path / "a", scale=0.1)
    second = workloads.generate(name, 5, tmp_path / "b", scale=0.1)
    other = workloads.generate(name, 6, tmp_path / "c", scale=0.1)
    assert first["sha256"] == second["sha256"]
    assert first == second
    assert other["sha256"]["reviews.jsonl"] != first["sha256"]["reviews.jsonl"]


def test_cached_inputs_are_reused_only_when_intact(tmp_path):
    truth = workloads.load_or_generate("campaign", 2, tmp_path, scale=0.1)
    reviews = tmp_path / "reviews.jsonl"
    stamp = reviews.stat().st_mtime_ns
    assert workloads.load_or_generate("campaign", 2, tmp_path, scale=0.1) == truth
    assert reviews.stat().st_mtime_ns == stamp
    reviews.write_text("tampered\n", encoding="utf-8")
    assert workloads.load_or_generate("campaign", 2, tmp_path, scale=0.1) == truth
    assert workloads.sha256_file(reviews) == truth["sha256"]["reviews.jsonl"]


def test_catalog_ratings_are_plain_decimals(tmp_path):
    workloads.generate("bulk", 1, tmp_path, scale=0.05)
    lines = (tmp_path / "catalog.csv").read_text(encoding="utf-8").splitlines()
    ratings = {line.split(",")[1] for line in lines[1:]}
    assert ratings <= {"2.0", "2.5", "3.0", "3.5", "4.0", "4.5"}


def test_union_of_overlapping_intervals():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_counts_overlapping_children_once():
    root = Span(0, "cli", None, 1, start=0.0, end=10.0)
    spans = [
        root,
        Span(1, "run_detector", 0, 2, start=2.0, end=6.0),  # two threads overlap
        Span(2, "run_detector", 0, 3, start=3.0, end=7.0),
        Span(3, "parse_reviews", 0, 1, start=0.5, end=1.5),
        Span(4, "inner", 3, 1, start=0.6, end=0.9),  # grandchild: not the root's child
    ]
    busy = spans[1].duration + spans[2].duration
    wall = union_length([(s.start, s.end) for s in spans[1:3]])
    assert (busy, wall) == pytest.approx((8.0, 5.0))
    assert self_time(root, spans) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(spans[3], spans) == pytest.approx(1.0 - 0.3)


def test_recorder_parents_pool_threads_to_the_open_root():
    from concurrent.futures import ThreadPoolExecutor

    rec = Recorder()
    leaf = rec.wrap("leaf", lambda x: x * 2, lambda args, r: {"out": r})

    def top():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf, 1), pool.submit(leaf, 2)]]

    assert rec.wrap("cli", top)() == [2, 4]
    root = rec.named("cli")[0]
    leaves = rec.named("leaf")
    assert [s.parent for s in leaves] == [root.id, root.id]
    assert sorted(s.counts["out"] for s in leaves) == [2, 4]
    assert all(root.start <= s.start <= s.end <= root.end for s in leaves)


def _fake_outputs(out_dir, truth):
    """A pipeline output directory that passes every per-seed check."""
    counts = truth["counts"]
    out_dir.mkdir()
    rows = "".join(f"r{i},a,u,1,boost,0.0\n" for i in range(counts["boost"] + counts["sink"]))
    (out_dir / "scores.csv").write_text(
        "# reviewstream anomaly scores\n# config {}\n"
        "review_id,app_id,reviewer_id,tick,substream,score\n" + rows, encoding="utf-8")
    (out_dir / "summary.json").write_text(json.dumps({"counts": counts}), encoding="utf-8")
    (out_dir / "clusters.json").write_text(json.dumps(
        [{"app_id": c["app_id"], "substream": c["substream"], "tick": c["tick"]}
         for c in truth["campaigns"]]), encoding="utf-8")
    (out_dir / "parse_errors.jsonl").write_text("{}\n" * truth["rejected_lines"],
                                                encoding="utf-8")
    for name in ("events.jsonl", "cdf_boost.csv", "cdf_sink.csv"):
        (out_dir / name).write_text("", encoding="utf-8")


def test_gate_fails_on_one_byte_change_to_scores(tmp_path):
    truth = workloads.generate("campaign", 3, tmp_path / "in", scale=0.05)
    out = tmp_path / "out"
    _fake_outputs(out, truth)
    assert gate.check_pipeline(out, truth) == []
    recorded = gate.file_digests(out, gate.PIPELINE_OUTPUTS)
    assert gate.compare_digests(gate.file_digests(out, gate.PIPELINE_OUTPUTS), recorded) == []

    scores = out / "scores.csv"
    data = bytearray(scores.read_bytes())
    data[-2] = ord("1")  # last score digit 0 -> 1: same row count, same size
    scores.write_bytes(bytes(data))
    assert gate.check_pipeline(out, truth) == []
    problems = gate.compare_digests(gate.file_digests(out, gate.PIPELINE_OUTPUTS), recorded)
    assert len(problems) == 1 and problems[0].startswith("scores.csv")


def test_gate_per_seed_checks(tmp_path):
    truth = workloads.generate("campaign", 3, tmp_path / "in", scale=0.05)
    out = tmp_path / "out"
    _fake_outputs(out, truth)
    (out / "clusters.json").write_text("[]", encoding="utf-8")
    with open(out / "scores.csv", "a", encoding="utf-8") as fh:
        fh.write("extra,a,u,1,sink,0.0\n")
    problems = gate.check_pipeline(out, truth)
    assert sum("missing from clusters.json" in p for p in problems) == len(truth["campaigns"])
    assert any(p.startswith("scores.csv has") for p in problems)

    network = tmp_path / "network.csv"
    network.write_text(f"app_a,app_b,weight\na,b,{truth['network_increments']}\n",
                       encoding="utf-8")
    assert gate.check_network(network, truth) == []
    network.write_text("app_a,app_b,weight\na,b,1\n", encoding="utf-8")
    assert gate.check_network(network, truth) != []
