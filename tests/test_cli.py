import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import JSON_VALUES, graph_rows, shared_reviewer_weights, table_edges, to_tick
from reviewstream import cli, detector
from reviewstream.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from reviewstream.clusters import LexicalEmbedder, PairAnalysis, cosine, lexical_vector
from reviewstream.detector import SCORES_COLUMNS, DetectorConfig
from reviewstream.ingest import ReviewEdge, ReviewTable, parse_reviews
from reviewstream.stats import shared_reviewer_graph

DEEP = "[" * 100_000  # JSON nested far past the recursion limit

PIPELINE_STAGES = ("parse_reviews", "parse_catalog", "partition", "detect_boost", "detect_sink",
                   "summarize", "collect", "report", "ttest", "write")  # in the order they run


def run_pipeline(reviews, catalog, out_dir, *extra):
    return main([
        "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
        "--out-dir", str(out_dir), "--origin", "0", *extra,
    ])


class TestPipeline:
    def test_writes_expected_files_and_manifest(self, synth_files, tmp_path, capsys):
        reviews, _, catalog = synth_files
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir) == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted([
            "parse_errors.jsonl", "scores.csv", "events.jsonl", "clusters.json",
            "cdf_boost.csv", "cdf_sink.csv", "summary.json", "manifest.json",
        ])
        summary = json.loads((out_dir / "summary.json").read_text())
        counts = summary["counts"]
        assert counts["boost"] + counts["sink"] + counts["unpartitioned"] == counts["reviews"]
        assert summary["events"] >= 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool"] == "reviewstream"
        assert manifest["config"]["origin"] == 0
        assert len(manifest["config"]["seeds"]) == manifest["config"]["rows"]
        detector_config = DetectorConfig(origin=0).to_dict()
        assert {k: manifest["config"][k] for k in detector_config} == detector_config
        assert manifest["inputs"]["reviews"]["sha256"]
        assert sorted(manifest["inputs"]) == ["catalog", "reviews"]
        assert manifest["config"]["embeddings"] is None
        header = (out_dir / "scores.csv").read_text().splitlines()[1]
        assert header.startswith("# config ")
        stdout = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(stdout)["counts"] == counts

    def test_manifest_records_the_embeddings_sidecar(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        ids = [json.loads(line)["review_id"] for line in reviews.read_text().splitlines()]
        sidecar = tmp_path / "vectors.jsonl"
        sidecar.write_text("".join(json.dumps({"review_id": r, "vector": [1.0, i % 3]}) + "\n"
                                   for i, r in enumerate(ids)), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir, "--provider", "file",
                            "--embeddings", str(sidecar)) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
        assert manifest["inputs"]["embeddings"] == {"path": str(sidecar), "sha256": digest}
        assert manifest["config"]["embeddings"] == str(sidecar)
        assert manifest["config"]["provider"] == "file"

    def test_manifest_counts_parse_errors_by_reason(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        lines = reviews.read_text().splitlines()
        lines[0] = lines[1] = "{broken"
        lines[2] = json.dumps({k: v for k, v in json.loads(lines[2]).items() if k != "score"})
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows = catalog.read_text().splitlines()
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join([*rows, rows[1]]) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run_pipeline(dirty, doubled, out_dir, "--max-error-rate", "0.5") == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["parse_errors"] == {
            "reviews": {"syntax": 2, "missing_field": 1}, "catalog": {"duplicate": 1}}
        sidecar = [json.loads(line)
                   for line in (out_dir / "parse_errors.jsonl").read_text().splitlines()]
        for name, path in (("reviews", dirty), ("catalog", doubled)):
            assert Counter(e["reason"] for e in sidecar if e["file"] == str(path)) \
                == manifest["parse_errors"][name]
        assert run_pipeline(reviews, catalog, tmp_path / "clean") == EXIT_OK
        manifest = json.loads((tmp_path / "clean" / "manifest.json").read_text())
        assert manifest["parse_errors"] == {"reviews": {}, "catalog": {}}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_manifest_records_each_stages_peak_rss(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        assert run_pipeline(reviews, catalog, tmp_path / "out") == EXIT_OK
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert sorted(stages) == sorted(PIPELINE_STAGES)
        peaks = [stages[name]["peak_rss_mb"] for name in PIPELINE_STAGES]
        assert peaks[0] > 0 and peaks == sorted(peaks)  # a high-water mark never falls

    def test_manifest_leaves_out_peak_rss_without_proc(self, synth_files, tmp_path, monkeypatch):
        def no_proc(path, *args, **kwargs):
            if str(path) == "/proc/self/status":
                raise FileNotFoundError(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", no_proc, raising=False)
        reviews, _, catalog = synth_files
        assert run_pipeline(reviews, catalog, tmp_path / "out") == EXIT_OK
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert stages and all(sorted(stage) == ["in", "out", "seconds"]
                              for name, stage in stages.items() if name != "ttest")
        assert sorted(stages["ttest"]) == ["helper_peak_rss_mb", "in", "out", "seconds"]

    def test_write_failure_removes_the_outputs_written_before_it(self, synth_files, tmp_path,
                                                                 caplog):
        reviews, _, catalog = synth_files
        out_dir = tmp_path / "out"
        (out_dir / "clusters.json").mkdir(parents=True)  # written after three other outputs
        assert run_pipeline(reviews, catalog, out_dir) == EXIT_CONFIG
        assert f"Is a directory: '{out_dir / 'clusters.json'}'" in caplog.text
        assert list(out_dir.iterdir()) == [out_dir / "clusters.json"]  # the directory stays

    def test_injected_app_tops_cluster_report(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir) == EXIT_OK
        report = json.loads((out_dir / "clusters.json").read_text())
        assert report[0]["app_id"] == "a003"
        assert report[0]["tick"] == 12
        assert report[0]["substream"] == "boost"
        assert report[0]["flagged_count"] >= 0.9 * report[0]["size"]
        assert report[0]["tau"] == 0.95 and report[0]["provider"] == "lexical"

    def test_rerun_is_byte_identical(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        first, second = tmp_path / "out1", tmp_path / "out2"
        assert run_pipeline(reviews, catalog, first) == EXIT_OK
        assert run_pipeline(reviews, catalog, second) == EXIT_OK
        for name in ("scores.csv", "events.jsonl", "clusters.json",
                     "summary.json", "cdf_boost.csv", "cdf_sink.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_stages_agree_with_summary(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir) == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        stages, detector = manifest["stages"], manifest["detector"]
        assert list(stages) == sorted([
            "parse_reviews", "parse_catalog", "partition", "detect_boost", "detect_sink",
            "summarize", "collect", "report", "ttest", "write",
        ])
        assert all(stage["seconds"] >= 0 for stage in stages.values())
        counts, partition = summary["counts"], summary["partition"]
        assert stages["parse_reviews"]["out"] == counts["reviews"]
        assert stages["partition"]["in"] == stages["partition"]["out"] == counts["reviews"]
        for label in ("boost", "sink"):
            stage = stages[f"detect_{label}"]
            assert stage["in"] == stage["out"] == partition[label] == counts[label]
            assert 0 <= detector[label]["filtered_merges"] <= detector[label]["groups"]
            assert detector[label]["groups"] <= partition[label]
            assert 0.0 < detector[label]["sketch_occupancy"] <= 1.0
            assert 0.0 <= detector[label]["apps_colliding_all_rows"] <= 1.0
        assert detector["boost"]["events"] + detector["sink"]["events"] == summary["events"]
        assert stages["collect"]["in"] == stages["collect"]["out"] == summary["events"]
        assert stages["report"]["out"] == summary["clusters_reported"]
        assert stages["ttest"]["in"] == counts["boost"] + counts["sink"]
        assert stages["ttest"]["out"] == int(summary["welch_boost_vs_sink"] is not None)
        assert stages["write"]["out"] == 7  # every output but the manifest

    @pytest.mark.parametrize("origin", ["-99999999999999999999999", str(2**63)])
    def test_origin_outside_int64_exits_3_naming_it(self, synth_files, tmp_path, caplog, origin):
        reviews, _, catalog = synth_files
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(tmp_path / "out"), f"--origin={origin}",
        ])
        assert code == EXIT_CONFIG
        assert "origin must fit in int64" in caplog.text

    def test_origin_at_the_int64_floor_gives_exact_ticks(self, tmp_path):
        reviews = tmp_path / "reviews.jsonl"
        stamps = [0, 1, 2**62, 2**63 - 1]
        reviews.write_text("".join(
            json.dumps({"review_id": f"r{i}", "reviewer_id": f"u{i}", "app_id": "a",
                        "timestamp": ts, "score": 5}) + "\n"
            for i, ts in enumerate(stamps)), encoding="utf-8")
        catalog = tmp_path / "apps.csv"
        catalog.write_text("app_id,overall_rating\na,3.0\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(out_dir), f"--origin={-(2**63)}", "--period", "1",
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(
            line for line in (out_dir / "scores.csv").read_text().splitlines()
            if not line.startswith("#")))
        assert [int(r["tick"]) for r in rows] == [to_tick(ts, -(2**63), 1) for ts in stamps]
        assert int(rows[-1]["tick"]) == 2**64 - 1

    def test_missing_catalog_exits_3_with_no_outputs(self, synth_files, tmp_path):
        reviews, _, _ = synth_files
        out_dir = tmp_path / "out"
        code = run_pipeline(reviews, tmp_path / "nope.csv", out_dir)
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    def test_missing_origin_exits_3(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_CONFIG

    def test_bad_parameter_exits_3(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        code = run_pipeline(reviews, catalog, tmp_path / "out", "--burst-factor", "0.5")
        assert code == EXIT_CONFIG

    def test_dirty_input_above_threshold_exits_2(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        dirty = tmp_path / "dirty.jsonl"
        lines = reviews.read_text().splitlines()
        for i in range(0, len(lines), 10):  # corrupt 10% of lines
            lines[i] = "{broken"
        dirty.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = run_pipeline(dirty, catalog, out_dir)
        assert code == EXIT_DATA
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_config_file_with_flag_override(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"origin": 0, "burst_factor": 3.0, "top": 5}))
        out_dir = tmp_path / "out"
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(out_dir), "--config", str(config_path),
            "--burst-factor", "2.5",
        ])
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["burst_factor"] == 2.5  # flag wins
        assert manifest["config"]["top"] == 5  # file wins over default

    @pytest.mark.parametrize("bad", [
        {"period": "day"}, {"tau": "x"}, {"rows": 2.7}, {"top": True}, {"format": "xml"},
    ])
    def test_config_value_of_wrong_type_exits_3(self, synth_files, tmp_path, bad):
        reviews, _, catalog = synth_files
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"origin": 0, **bad}))
        out_dir = tmp_path / "out"
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(out_dir), "--config", str(config_path),
        ])
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", [
        "--burst-factor", "--min-prior", "--filter-threshold", "--max-error-rate",
    ])
    def test_non_finite_flag_exits_3(self, synth_files, tmp_path, flag):
        reviews, _, catalog = synth_files
        assert run_pipeline(reviews, catalog, tmp_path / "out", flag, "nan") == EXIT_CONFIG

    def test_undecodable_config_exits_3_naming_the_file(self, synth_files, tmp_path, caplog):
        reviews, _, catalog = synth_files
        config_path = tmp_path / "run.json"
        config_path.write_bytes(b"\xff\xfe" + json.dumps({"origin": 0}).encode())
        out_dir = tmp_path / "out"
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(out_dir), "--config", str(config_path),
        ])
        assert code == EXIT_CONFIG
        assert f"config file {config_path} is not UTF-8 text" in caplog.text
        assert not out_dir.exists()

    def test_unknown_config_key_exits_3(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"origin": 0, "burst": 2.0}))
        code = main([
            "pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
            "--out-dir", str(tmp_path / "out"), "--config", str(config_path),
        ])
        assert code == EXIT_CONFIG


class TestStages:
    def test_ingest_then_score_then_clusters(self, synth_files, tmp_path, capsys):
        reviews, _, catalog = synth_files
        canonical = tmp_path / "canonical.jsonl"
        errors = tmp_path / "errors.jsonl"
        assert main([
            "ingest", "--reviews", str(reviews), "--out", str(canonical),
            "--errors", str(errors),
        ]) == EXIT_OK
        assert canonical.read_bytes() == reviews.read_bytes()  # already canonical
        assert errors.read_text() == ""

        scores = tmp_path / "scores.csv"
        events = tmp_path / "events.jsonl"
        assert main([
            "score", "--reviews", str(canonical), "--catalog", str(catalog),
            "--out-scores", str(scores), "--out-events", str(events),
            "--origin", "0",
        ]) == EXIT_OK
        partition_counts = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(partition_counts) == {"boost", "sink", "unpartitioned"}

        report_path = tmp_path / "clusters.json"
        assert main([
            "clusters", "--reviews", str(canonical), "--scores", str(scores),
            "--events", str(events), "--out", str(report_path),
            "--top", "10", "--tau", "1.0", "--provider", "lexical",
        ]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert any(entry["app_id"] == "a003" for entry in report)

    def test_pairs_finds_template_duplicates(self, synth_files, tmp_path, capsys):
        reviews, truth, _ = synth_files
        injected_ids = {
            json.loads(line)["review_id"]
            for line in truth.read_text().splitlines()
            if json.loads(line)["injected"]
        }
        subset = tmp_path / "subset.jsonl"
        with open(subset, "w") as out:
            for line in reviews.read_text().splitlines():
                if json.loads(line)["review_id"] in injected_ids:
                    out.write(line + "\n")
        assert main(["pairs", "--reviews", str(subset), "--tau", "1.0"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["evaluated"] == 60
        assert len(result["flagged"]) == 60  # every template repeats

    def test_pairs_out_writes_the_report_and_prints_its_counts(self, synth_files, tmp_path,
                                                               capsys):
        reviews, _, _ = synth_files
        out = tmp_path / "pairs.json"
        argv = ["pairs", "--reviews", str(reviews), "--tau", "1.0", "--out", str(out)]
        assert main(argv) == EXIT_OK
        result = json.loads(out.read_text(encoding="utf-8"))
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"pairs": len(result["pairs"]), "flagged": len(result["flagged"])}
        assert printed["pairs"] > 0

    def test_pairs_document_is_json_text_of_its_result(self, synth_files, tmp_path, capsys):
        """Written a pair at a time, to ``--out`` or to stdout, the document
        is ``_json_text`` of the result built from a fresh analysis."""
        reviews, _, _ = synth_files
        with open(reviews, encoding="utf-8") as fh:
            table, _ = parse_reviews(fh)
        analysis = PairAnalysis(table.review_id, table.text, LexicalEmbedder(), 0.5)
        pairs = list(analysis.ordered())
        expected = cli._json_text({
            "provider": "lexical", "tau": 0.5, "evaluated": analysis.evaluated_count,
            "textless": analysis.textless_count, "flagged": sorted(analysis.flagged_review_ids),
            "pairs": pairs,
        })
        out = tmp_path / "pairs.json"
        argv = ["pairs", "--reviews", str(reviews), "--tau", "0.5"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "pairs": len(pairs), "flagged": len(analysis.flagged_review_ids)}
        assert out.read_bytes() == expected.encode("utf-8")
        assert main(argv) == EXIT_OK
        assert len(pairs) > 0 and capsys.readouterr().out == expected

    def test_stats_ttest_and_flags(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("score\n1\n2\n3\n")
        b.write_text("value\n4\n5\n6\n")
        assert main(["stats", "ttest", "--a", str(a), "--b", f"{b}:value"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["t"] == pytest.approx(-3.674, abs=1e-3)
        assert result["p"] == result["p_one_sided"]
        assert main([
            "stats", "ttest", "--a", str(a), "--b", f"{b}:value", "--two-sided",
        ]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["p"] == result["p_two_sided"]

    def test_stats_ttest_degenerate_exits_2(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("score\n5\n5\n")
        assert main(["stats", "ttest", "--a", str(a), "--b", str(a)]) == EXIT_DATA

    @pytest.mark.parametrize("cells", [("0", "1e-160"), ("1e308", "-1e308")])
    def test_stats_ttest_out_of_float_range_exits_2(self, tmp_path, capsys, caplog, cells):
        a = tmp_path / "a.csv"
        a.write_text("score\n" + "\n".join(cells) + "\n")
        assert main(["stats", "ttest", "--a", str(a), "--b", str(a)]) == EXIT_DATA
        assert capsys.readouterr().out == ""
        assert "float64" in caplog.text

    def test_stats_cdf(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1.0\n2.0\n2.0\n4.0\n")
        assert main(["stats", "cdf", "--scores", str(scores)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value,fraction"
        assert lines[1] == "1.0,0.25"
        assert lines[-1] == "4.0,1.0"

    @pytest.mark.parametrize("command", ["cdf", "ttest"])
    def test_stats_csv_blank_lines_are_skipped(self, tmp_path, capsys, command):
        paths = [tmp_path / "plain.csv", tmp_path / "blank.csv"]
        paths[0].write_text("score\n1.0\n2.0\n4.0\n")
        paths[1].write_text("score\n\n1.0\n\n2.0\n4.0\n\n")
        printed = []
        for path in paths:
            flags = ["--scores", str(path)] if command == "cdf" else ["--a", str(path),
                                                                       "--b", str(paths[0])]
            assert main(["stats", command, *flags]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0]

    def test_stats_network(self, synth_files, tmp_path, capsys):
        reviews, _, _ = synth_files
        out = tmp_path / "net.csv"
        assert main([
            "stats", "network", "--reviews", str(reviews), "--out", str(out),
        ]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "app_a,app_b,weight"
        assert len(lines) > 1  # injection workers bridge apps via background overlap

    def test_stats_network_quotes_like_csv_writer(self, tmp_path):
        apps = ["a,b", 'say "hi"', "two\nlines", "plain", "été", "a"]
        records = [
            {"review_id": f"r{u}-{i}", "reviewer_id": f"u{u}", "app_id": app,
             "timestamp": 0, "score": 3}
            for u in range(3) for i, app in enumerate(apps[u:])
        ]
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "net.csv"
        assert main(["stats", "network", "--reviews", str(reviews), "--out", str(out)]) == EXIT_OK
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["app_a", "app_b", "weight"])
        table, _ = parse_reviews(reviews.read_text(encoding="utf-8").splitlines())
        writer.writerows(shared_reviewer_weights(table_edges(table)))
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    def test_synth_rejects_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_apps": 0}))
        assert main([
            "synth", "--spec", str(bad), "--out", str(tmp_path / "r.jsonl"),
            "--truth", str(tmp_path / "t.jsonl"),
        ]) == EXIT_CONFIG


# Arbitrary Unicode, lone surrogates included, with the characters JSON
# escapes drawn often.
PAIR_IDS = st.text(st.characters(exclude_categories=())
                   | st.sampled_from('"\\\t\n\x00\x7f\u2028\ud800'))
WORDS = st.text("abc ", max_size=8)
UNIT = st.lists(st.floats(-1, 1), min_size=3, max_size=3).map(
    lambda v: np.array(v) / max(np.linalg.norm(v), 1e-300))
# Similarities as each provider's cosine gives them, and any in [-1, 1].
SIMILARITIES = (st.builds(lambda a, b: cosine(lexical_vector(a), lexical_vector(b)), WORDS, WORDS)
                | st.builds(cosine, UNIT, UNIT) | st.floats(-1, 1))


@settings(max_examples=300, deadline=None)
@given(provider=st.sampled_from(["lexical", "file"]), tau=st.floats(0, 1, exclude_min=True),
       counts=st.tuples(st.integers(0, 2**63), st.integers(0, 2**63)),
       flagged=st.lists(PAIR_IDS, max_size=4),
       pairs=st.lists(st.builds(lambda a, b, s: {"a": a, "b": b, "similarity": s},
                                PAIR_IDS, PAIR_IDS, SIMILARITIES), max_size=6))
def test_pairs_writer_writes_the_json_text_of_its_document(provider, tau, counts, flagged, pairs):
    head = {"provider": provider, "tau": tau, "evaluated": counts[0], "textless": counts[1],
            "flagged": sorted(flagged)}
    written: list[str] = []
    cli._pairs_json(head, iter(pairs), written.append)
    assert "".join(written) == cli._json_text({**head, "pairs": pairs})


def score_files(reviews, catalog, tmp_path, *extra):
    scores, events = tmp_path / "scores.csv", tmp_path / "events.jsonl"
    assert main([
        "score", "--reviews", str(reviews), "--catalog", str(catalog),
        "--out-scores", str(scores), "--out-events", str(events), "--origin", "0", *extra,
    ]) == EXIT_OK
    return scores, events


def test_min_prior_that_overflows_the_burst_ratio_exits_3(tmp_path, caplog):
    """A burst after silence divides by ``min_prior``: below 2**-960 the
    ratio could overflow to infinity, which no events reader takes."""
    reviews = tmp_path / "reviews.jsonl"
    reviews.write_text("".join(
        json.dumps({"review_id": f"r{i}", "reviewer_id": f"u{i}", "app_id": "a",
                    "timestamp": ts, "score": 5}) + "\n"
        for i, ts in enumerate([2, 3])), encoding="utf-8")
    catalog = tmp_path / "apps.csv"
    catalog.write_text("app_id,overall_rating\na,3.0\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["score", "--reviews", str(reviews), "--catalog", str(catalog), "--origin", "0",
            "--period", "1", "--out-scores", str(out / "scores.csv"),
            "--out-events", str(out / "events.jsonl")]
    assert main([*argv, "--min-prior", "5e-324"]) == EXIT_CONFIG
    assert "min_prior must be 0 or at least 2**-960" in caplog.text
    assert not list(out.iterdir())
    assert main([*argv, "--min-prior", str(2.0**-960)]) == EXIT_OK
    event = json.loads((out / "events.jsonl").read_text(encoding="utf-8"))
    assert (event["prior_count"], event["burst_count"], event["ratio"]) == (0, 1, 2.0**960)
    assert main(["clusters", "--reviews", str(reviews), "--scores", str(out / "scores.csv"),
                 "--events", str(out / "events.jsonl"), "--out", str(out / "c.json")]) == EXIT_OK


class TestStagedEqualsPipeline:
    def test_score_then_clusters_matches_pipeline(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        config = ("--burst-factor", "2.5", "--cols", "64")
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir, *config, "--top", "3") == EXIT_OK
        staged = tmp_path / "staged"
        staged.mkdir()
        scores, events = score_files(reviews, catalog, staged, *config)
        report = staged / "clusters.json"
        assert main([
            "clusters", "--reviews", str(reviews), "--scores", str(scores),
            "--events", str(events), "--out", str(report), "--top", "3",
        ]) == EXIT_OK
        for name in ("scores.csv", "events.jsonl", "clusters.json"):
            assert (staged / name).read_bytes() == (out_dir / name).read_bytes(), name

    def test_review_id_with_a_hash_line_round_trips(self, synth_files, tmp_path):
        # The id's second line starts with "#": in scores.csv that line
        # continues a quoted cell; only the "#" lines before the header are comments.
        reviews, _, catalog = synth_files
        plain = tmp_path / "plain"
        plain.mkdir()
        plain_scores, _ = score_files(reviews, catalog, plain)
        lines = reviews.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        lines[0] = json.dumps({**first, "review_id": first["review_id"] + "\n# odd"}) + "\n"
        reviews.write_text("".join(lines), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir) == EXIT_OK
        staged = tmp_path / "staged"
        staged.mkdir()
        scores, events = score_files(reviews, catalog, staged)
        assert "\n# odd" in scores.read_text(encoding="utf-8")
        report = staged / "clusters.json"
        assert main([
            "clusters", "--reviews", str(reviews), "--scores", str(scores),
            "--events", str(events), "--out", str(report),
        ]) == EXIT_OK
        assert report.read_bytes() == (out_dir / "clusters.json").read_bytes()
        cdf, plain_cdf = staged / "cdf.csv", plain / "cdf.csv"
        for path, out in ((scores, cdf), (plain_scores, plain_cdf)):
            assert main(["stats", "cdf", "--scores", str(path), "--out", str(out)]) == EXIT_OK
        assert cdf.read_bytes() == plain_cdf.read_bytes()


class TestRejections:
    def test_top_below_one_exits_3_for_pipeline(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir, "--top", "0") == EXIT_CONFIG
        assert not out_dir.exists()

    def test_top_below_one_exits_3_for_clusters(self, synth_files, tmp_path):
        reviews, _, catalog = synth_files
        scores, events = score_files(reviews, catalog, tmp_path)
        report = tmp_path / "clusters.json"
        assert main([
            "clusters", "--reviews", str(reviews), "--scores", str(scores),
            "--events", str(events), "--out", str(report), "--top", "0",
        ]) == EXIT_CONFIG
        assert not report.exists()

    @pytest.mark.parametrize("line", [
        "{not json",
        '{"vector": [1.0, 0.0]}',
        '{"review_id": "x"}',
        '{"review_id": "x", "vector": [[1.0, 0.0]]}',
        '{"review_id": "x", "vector": [1.0, 0.0, 2.0]}',
        '{"review_id": "x", "vector": [NaN, 1.0]}',
        '{"review_id": "x", "vector": [[1.0], [1.0, 2.0]]}',
        '{"review_id": "x", "vector": ["1", "2"]}',
        '{"review_id": "x", "vector": [true, false]}',
        '{"review_id": "x", "vector": [1' + "0" * 400 + ', 1]}',
        '{"review_id": 5, "vector": [1.0, 0.0]}',
    ], ids=["bad-json", "no-review-id", "no-vector", "not-1d", "ragged-dim", "nan",
            "ragged-nested", "str-elements", "bool-elements", "int-overflow", "int-review-id"])
    def test_bad_embedding_sidecar_exits_2_naming_the_line(self, synth_files, tmp_path,
                                                          caplog, line):
        reviews, _, _ = synth_files
        sidecar = tmp_path / "vectors.jsonl"
        sidecar.write_text('{"review_id": "ok", "vector": [1.0, 0.0]}\n' + line + "\n")
        assert main([
            "pairs", "--reviews", str(reviews), "--provider", "file",
            "--embeddings", str(sidecar),
        ]) == EXIT_DATA
        assert f"{sidecar}:2: " in caplog.text

    def test_deeply_nested_review_line_is_a_syntax_rejection(self, tmp_path):
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text(ONE_REVIEW + DEEP + "\n", encoding="utf-8")
        errors = tmp_path / "errors.jsonl"
        assert main(["ingest", "--reviews", str(reviews), "--out", str(tmp_path / "out.jsonl"),
                     "--errors", str(errors), "--max-error-rate", "1"]) == EXIT_OK
        (error,) = map(json.loads, errors.read_text(encoding="utf-8").splitlines())
        assert (error["line"], error["reason"]) == (2, "syntax")

    def test_lone_surrogates_are_syntax_rejections(self, synth_files, tmp_path):
        """A JSON escape can give a string a lone surrogate, which has no UTF-8
        form to write: each such line is a syntax error, and every command
        writes what it writes for the stream without those lines."""
        reviews, _, catalog = synth_files
        clean = reviews.read_text(encoding="utf-8")
        first = json.loads(clean.splitlines()[0])
        odd = [{**first, "review_id": "r\ud800"},
               {**first, "review_id": "s", "reviewer_id": "\udc00"},
               {**first, "review_id": "t", "text": "good \udfff app"}]
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text(clean + "".join(json.dumps(r) + "\n" for r in odd), encoding="utf-8")
        odd_lines = [len(clean.splitlines()) + k for k in (1, 2, 3)]
        for name, path in (("clean", reviews), ("dirty", dirty)):
            out = tmp_path / name
            out.mkdir()
            assert main(["ingest", "--reviews", str(path), "--out", str(out / "canonical.jsonl"),
                         "--errors", str(out / "errors.jsonl"),
                         "--max-error-rate", "1"]) == EXIT_OK
            score_files(path, catalog, out, "--max-error-rate", "1")
            assert run_pipeline(path, catalog, out / "run", "--max-error-rate", "1") == EXIT_OK
        for errors in (tmp_path / "dirty" / "errors.jsonl",
                       tmp_path / "dirty" / "run" / "parse_errors.jsonl"):
            rejected = [json.loads(line) for line in errors.read_text().splitlines()]
            assert [(e["line"], e["reason"]) for e in rejected] == [(n, "syntax")
                                                                      for n in odd_lines]
        for name in ("canonical.jsonl", "scores.csv", "events.jsonl", "run/scores.csv",
                     "run/events.jsonl", "run/clusters.json"):
            dirty_bytes, clean_bytes = ((tmp_path / side / name).read_bytes()
                                        for side in ("dirty", "clean"))
            assert dirty_bytes == clean_bytes

    @pytest.mark.parametrize("command", [
        ["stats", "network"], ["pairs"],
    ])
    def test_all_lines_malformed_exits_2(self, tmp_path, command):
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text("{broken\n" * 5)
        assert main([*command, "--reviews", str(reviews)]) == EXIT_DATA

    @pytest.mark.parametrize("bad", [
        "scores", "events", "scores-short-row", "events-str-tick", "events-bool-count",
        "scores-negative-tick", "scores-tick-2-64", "scores-unknown-substream",
        "scores-non-numeric-score", "scores-unknown-review", "scores-plus-tick",
        "scores-space-tick", "scores-underscore-tick", "scores-nan-score", "events-nan-ratio",
        "events-not-an-object", "events-missing-field",
    ])
    def test_malformed_clusters_input_exits_2_naming_the_file(self, synth_files, tmp_path,
                                                               caplog, bad):
        reviews, _, catalog = synth_files
        scores, events = score_files(reviews, catalog, tmp_path)
        event = json.loads(events.read_text().splitlines()[0])

        def first_row(column, value):  # scores.csv with one cell of its first row replaced
            lines = scores.read_text().splitlines(keepends=True)
            at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
            cells = lines[at].split(",")
            cells[SCORES_COLUMNS.index(column)] = value
            lines[at] = ",".join(cells).rstrip("\n") + "\n"
            return "".join(lines)

        broken, text = {
            "scores": (scores, "x,y\n"),
            "events": (events, "{bad\n"),
            "scores-short-row": (scores, scores.read_text() + "r1,a000,u1,3,boost\n"),
            "events-str-tick": (events, json.dumps({**event, "prior_tick": "x"}) + "\n"),
            "events-bool-count": (events, json.dumps({**event, "burst_count": True}) + "\n"),
            "scores-negative-tick": (scores, re.sub(r"^([^#\n,]*,[^,]*,[^,]*),\d+,", r"\1,-1,",
                                                    scores.read_text(), count=1, flags=re.M)),
            "scores-tick-2-64": (scores, first_row("tick", str(2**64))),
            "scores-unknown-substream": (scores, first_row("substream", "bogus")),
            "scores-non-numeric-score": (scores, first_row("score", "x")),
            "scores-unknown-review": (scores, scores.read_text() + "nobody,a000,u1,3,boost,1.0\n"),
            # int() reads these as 3, 3 and 10; ingest rejects them too
            "scores-plus-tick": (scores, first_row("tick", "+3")),
            "scores-space-tick": (scores, first_row("tick", " 3")),
            "scores-underscore-tick": (scores, first_row("tick", "1_0")),
            # a NaN would reach clusters.json as `NaN`, which is not JSON
            "scores-nan-score": (scores, first_row("score", "nan")),
            "events-nan-ratio": (events, json.dumps({**event, "ratio": math.nan}) + "\n"),
            "events-not-an-object": (events, "[1, 2]\n"),
            "events-missing-field": (events, json.dumps({k: v for k, v in event.items()
                                                         if k != "ratio"}) + "\n"),
        }[bad]
        broken.write_text(text)
        report = tmp_path / "clusters.json"
        assert main([
            "clusters", "--reviews", str(reviews), "--scores", str(scores),
            "--events", str(events), "--out", str(report),
        ]) == EXIT_DATA
        assert str(broken) in caplog.text
        assert not report.exists()

    @pytest.mark.parametrize("command", ["cdf", "ttest"])
    def test_undecodable_csv_exits_2_naming_the_file(self, tmp_path, caplog, command):
        broken = tmp_path / "s.csv"
        broken.write_bytes(b"\xff\xfescore\n1\n2\n")
        flags = {"cdf": ["--scores", str(broken)],
                 "ttest": ["--a", str(broken), "--b", str(broken)]}
        assert main(["stats", command, *flags[command]]) == EXIT_DATA
        assert f"csv file {broken} is not UTF-8 text" in caplog.text

    @pytest.mark.parametrize("command", ["cdf", "ttest"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_exits_2_naming_the_file(self, tmp_path, capsys, caplog,
                                                         command, cell):
        scores = tmp_path / "s.csv"
        scores.write_text(f"score\n1.0\n{cell}\n2.0\n")
        flags = {"cdf": ["--scores", str(scores)],
                 "ttest": ["--a", str(scores), "--b", str(scores)]}
        assert main(["stats", command, *flags[command]]) == EXIT_DATA
        assert capsys.readouterr().out == ""
        assert f"{scores}: non-finite value in column 'score': ['{cell}']" in caplog.text

    @pytest.mark.parametrize("which", ["reviews", "catalog"])
    def test_undecodable_input_exits_2_naming_the_file(self, synth_files, tmp_path,
                                                       caplog, which):
        reviews, _, catalog = synth_files
        broken = {"reviews": reviews, "catalog": catalog}[which]
        broken.write_bytes(b"\xff\xfe" + broken.read_bytes())
        if which == "reviews":
            assert main(["stats", "network", "--reviews", str(reviews)]) == EXIT_DATA
        out_dir = tmp_path / "out"
        assert run_pipeline(reviews, catalog, out_dir) == EXIT_DATA
        assert f"{which} file {broken} is not UTF-8 text" in caplog.text
        assert not out_dir.exists()


PIPELINE = ["pipeline", "--reviews", "reviews.jsonl", "--catalog", "apps.csv", "--out-dir", "out"]
CLUSTERS = ["clusters", "--scores", "scores.csv", "--events", "events.jsonl", "--out", "report.json"]
PAIRS = ["pairs", "--reviews", "reviews.jsonl", "--out", "pairs.json"]
SYNTH = ["synth", "--spec", "spec.json", "--out", "o.jsonl", "--truth", "t.jsonl"]
VECTORS = {"vecs.jsonl": '{"review_id": "nobody", "vector": [1.0, 0.0]}\n'}
NO_EDGES = {"app_id": "a000", "substream": "boost", "prior_tick": 500, "prior_count": 1,
            "burst_count": 5, "ratio": 5.0}
NO_EDGES_EVENT = json.dumps(NO_EDGES) + "\n"
DIGITS_401 = 10**400  # past float64, under the decoder's 4300-digit limit
SMALL_SPEC = {"n_apps": 3, "n_reviewers": 5, "ticks": 2, "background_rate": 1.0}
LONG_FIELD = "1" * 200_000  # past csv.field_size_limit(), 131,072 characters
TOO_LONG = "field larger than field limit (131072)"


def spec_file(**changes) -> dict[str, str]:
    """A spec.json of ``SMALL_SPEC`` with ``changes``."""
    return {"spec.json": json.dumps({**SMALL_SPEC, **changes})}


def config_file(**values) -> dict[str, str]:
    """A run.json of ``{"origin": 0}`` with ``values``."""
    return {"run.json": json.dumps({"origin": 0, **values})}


def events_file(**changes) -> dict[str, str]:
    """An events.jsonl of one event with ``changes``."""
    return {"events.jsonl": json.dumps({**NO_EDGES, **changes}) + "\n"}


def injection_spec(**changes) -> dict[str, str]:
    """A spec.json of ``SMALL_SPEC`` with one injection, with ``changes``."""
    return spec_file(injections=[{"app_id": "a000", "tick": 1, "n_edges": 1,
                                  "n_reviewers_used": 1, "score_mode": "boost", **changes}])


NOT_POSITIVE = "n_apps, n_reviewers and ticks must be positive"
BAD_INJECTION = "injection needs n_edges >= 0 and n_reviewers_used >= 1"
# The event of the campaign that the synthetic stream injects.
CAMPAIGN_EVENT = json.dumps({**NO_EDGES, "app_id": "a003", "prior_tick": 11}) + "\n"

ONE_REVIEW = json.dumps({"review_id": "r1", "reviewer_id": "u1", "app_id": "a000",
                         "timestamp": 0, "score": 5}) + "\n"

# Two reviews 10**12 one-second ticks apart: history decays about
# 7.5e9 steps before it stops changing.
GAP = {"gap.jsonl": "".join(json.dumps({"review_id": f"r{i}", "reviewer_id": "u1",
                                        "app_id": "a000", "timestamp": t, "score": 5}) + "\n"
                            for i, t in ((1, 0), (2, 10**12)))}
SLOW_DECAY = ["--reviews", "gap.jsonl", "--origin", "0", "--period", "1", "--decay", "0.9999999"]

# One case per README exit-code cause that no other test reaches: the
# command (run in the directory of the synthetic stream; `clusters` after
# `score` wrote scores.csv and events.jsonl there), the files to write
# first (a name ending in "/" is a directory), the exit code and text the
# logged message must hold.
EXIT_CASES = {
    "timestamp-before-origin": (PIPELINE + ["--origin", "1000000"], {}, EXIT_CONFIG,
                                "precedes origin 1000000; lower --origin"),
    "config-not-json": (PIPELINE + ["--config", "run.json"], {"run.json": '{"origin": 0'},
                        EXIT_CONFIG, "config file run.json is not valid JSON"),
    "config-not-an-object": (PIPELINE + ["--config", "run.json"], {"run.json": "[0]"},
                             EXIT_CONFIG, "config file run.json must hold a JSON object"),
    "max-error-rate-above-1": (PIPELINE + ["--origin", "0", "--max-error-rate", "1.5"], {},
                               EXIT_CONFIG, "max_error_rate must be in [0, 1], got 1.5"),
    "tau-zero": (PIPELINE + ["--config", "run.json"], {"run.json": '{"origin": 0, "tau": 0}'},
                 EXIT_CONFIG, "tau must be in (0, 1], got 0.0"),
    "file-provider-without-embeddings": (PIPELINE + ["--origin", "0", "--provider", "file"], {},
                                         EXIT_CONFIG, "provider 'file' requires --embeddings"),
    "embeddings-without-file-provider": (PAIRS + ["--embeddings", "vecs.jsonl"], VECTORS,
                                         EXIT_CONFIG,
                                         "embeddings needs provider 'file', not 'lexical'"),
    "out-dir-under-a-file": (PIPELINE[:-1] + ["plain/out", "--origin", "0"], {"plain": "x"},
                             EXIT_CONFIG, "plain/out"),
    "event-without-scored-edges": (CLUSTERS + ["--reviews", "reviews.jsonl"],
                                   {"events.jsonl": NO_EDGES_EVENT}, EXIT_DATA,
                                   "event for app 'a000' at tick 501 (boost) has no scored edges"),
    "score-row-without-review": (CLUSTERS + ["--reviews", "one.jsonl"], {"one.jsonl": ONE_REVIEW},
                                 EXIT_DATA, "scores file scores.csv is malformed"),
    "pipeline-sidecar-lacks-a-vector": (
        PIPELINE + ["--origin", "0", "--provider", "file", "--embeddings", "vecs.jsonl"],
        VECTORS, EXIT_DATA, "no embedding for review_id"),
    "pairs-sidecar-lacks-a-vector": (PAIRS + ["--provider", "file", "--embeddings", "vecs.jsonl"],
                                     VECTORS, EXIT_DATA, "no embedding for review_id"),
    "stats-missing-column": (["stats", "cdf", "--scores", "s.csv:nope", "--out", "cdf.csv"],
                             {"s.csv": "score\n1.0\n"}, EXIT_DATA, "s.csv: no column 'nope'"),
    "stats-non-numeric-value": (["stats", "ttest", "--a", "s.csv", "--b", "s.csv"],
                                {"s.csv": "score\n1.0\nabc\n"}, EXIT_DATA,
                                "s.csv: bad value in column 'score': ['abc']"),
    "stats-no-values": (["stats", "cdf", "--scores", "s.csv", "--out", "cdf.csv"],
                        {"s.csv": "score\n"}, EXIT_DATA, "s.csv: no values in column 'score'"),
    "pipeline-write-fails": (PIPELINE + ["--origin", "0"], {"out/summary.json/": None},
                             EXIT_CONFIG, "out/summary.json"),
    "reviews-csv-names-a-column-twice": (
        PIPELINE + ["--origin", "0", "--reviews", "r.csv", "--format", "csv"],
        {"r.csv": "review_id,reviewer_id,app_id,timestamp,score,score\nr1,u1,a000,1,5,4\n"},
        EXIT_DATA, "reviews file r.csv: header names column 'score' twice"),
    "stats-cdf-names-a-column-twice": (
        ["stats", "cdf", "--scores", "s.csv", "--out", "cdf.csv"],
        {"s.csv": "score,score\n1,5\n2,6\n"}, EXIT_DATA, "s.csv: header names column 'score' twice"),
    "stats-ttest-names-a-column-twice": (
        ["stats", "ttest", "--a", "s.csv:x", "--b", "s.csv:x"], {"s.csv": "x,y,x\n1,0,5\n2,0,6\n"},
        EXIT_DATA, "s.csv: header names column 'x' twice"),
    "events-nested-too-deeply": (CLUSTERS + ["--reviews", "reviews.jsonl"],
                                 {"events.jsonl": DEEP + "\n"}, EXIT_DATA,
                                 "events file events.jsonl is malformed: line 1: maximum recursion"),
    "scores-config-nested-too-deeply": (
        CLUSTERS + ["--reviews", "reviews.jsonl"],
        {"scores.csv": f"# config {DEEP}\n{','.join(SCORES_COLUMNS)}\n"}, EXIT_DATA,
        "scores file scores.csv is malformed: maximum recursion depth exceeded"),
    "sidecar-nested-too-deeply": (PAIRS + ["--provider", "file", "--embeddings", "vecs.jsonl"],
                                  {"vecs.jsonl": DEEP + "\n"}, EXIT_DATA,
                                  "vecs.jsonl:1: not a {review_id, vector} object"),
    "sidecar-unknown-key": (PAIRS + ["--provider", "file", "--embeddings", "vecs.jsonl"],
                            {"vecs.jsonl": '{"review_id": "b0000001", "vector": [1, 0], '
                                           '"extra": 1}\n'},
                            EXIT_DATA, "vecs.jsonl:1: unknown key 'extra'"),
    "config-nested-too-deeply": (PIPELINE + ["--config", "run.json"], {"run.json": DEEP},
                                 EXIT_CONFIG, "config file run.json is not valid JSON"),
    "config-integer-too-long": (PIPELINE + ["--config", "run.json"],
                                {"run.json": '{"origin": 1' + "0" * 5000 + "}"}, EXIT_CONFIG,
                                "config file run.json is not valid JSON: Exceeds the limit"),
    "synth-spec-nested-too-deeply": (SYNTH, {"spec.json": DEEP}, EXIT_CONFIG,
                                     "bad synth spec spec.json"),
    "synth-spec-not-an-object": (SYNTH, {"spec.json": "[1, 2]"}, EXIT_CONFIG,
                                 "SynthSpec must be a JSON object, got [1, 2]"),
    "synth-ticks-not-an-integer": (SYNTH, spec_file(ticks=2.5), EXIT_CONFIG,
                                   "ticks must be an integer, got 2.5"),
    "synth-background-rate-nan": (SYNTH, spec_file(background_rate=math.nan), EXIT_CONFIG,
                                  "background_rate must be a finite number, got nan"),
    "synth-background-rate-past-poisson-limit": (
        SYNTH, spec_file(background_rate=1e300), EXIT_CONFIG,
        "background_rate must be in [0, 9.223372006484771e+18], got 1e+300"),
    "synth-negative-seed": (SYNTH, spec_file(seed=-1), EXIT_CONFIG,
                            "seed must be non-negative, got -1"),
    "synth-bool-count": (SYNTH, spec_file(n_apps=True), EXIT_CONFIG,
                         "n_apps must be an integer, got True"),
    "synth-unknown-key": (SYNTH, spec_file(sed=5), EXIT_CONFIG, "unknown SynthSpec key 'sed'"),
    "synth-negative-origin": (SYNTH, spec_file(origin=-1_000_000), EXIT_CONFIG,
                              "origin + ticks * period must lie in [0, 2**63 - 1]"),
    "synth-base-rating-out-of-range": (SYNTH, spec_file(base_rating=9), EXIT_CONFIG,
                                       "base_rating must be in [1, 5], got 9"),
    "synth-app-ticks-past-the-limit": (SYNTH, spec_file(n_apps=10_000_000_000), EXIT_CONFIG,
                                       "n_apps * ticks must be at most 10000000, got"),
    "sketch-too-wide": (PIPELINE + ["--origin", "0", "--cols", "1000000000000000"], {},
                        EXIT_CONFIG, "sketch geometry must have at most 64 rows and 2**24"),
    "sketch-too-many-rows": (PIPELINE + ["--origin", "0", "--rows", "4000000000000000000"], {},
                             EXIT_CONFIG, "sketch geometry must have at most 64 rows and 2**24"),
    "pipeline-tick-gap-past-the-decay-bound": (
        PIPELINE + SLOW_DECAY, GAP, EXIT_DATA,
        "decaying history from tick 1 to tick 1000000000000, before review 'r2', would pass"),
    "score-tick-gap-past-the-decay-bound": (
        ["score", "--catalog", "apps.csv", "--out-scores", "s.csv", "--out-events", "e.jsonl",
         *SLOW_DECAY], GAP, EXIT_DATA, "before review 'r2', would pass"),
    "catalog-field-too-long": (
        PIPELINE + ["--origin", "0", "--catalog", "c.csv"],
        {"c.csv": f"app_id,overall_rating\na{LONG_FIELD},3.5\n"}, EXIT_DATA,
        f"catalog file c.csv: line 2: {TOO_LONG}"),
    "reviews-csv-field-too-long": (  # the quoted text ends on line 3
        ["ingest", "--reviews", "r.csv", "--format", "csv", "--out", "o.jsonl"],
        {"r.csv": "review_id,reviewer_id,app_id,timestamp,score,text\n"
                  f'r1,u1,a000,1,5,"a\n{LONG_FIELD}"\n'},
        EXIT_DATA, f"reviews file r.csv: line 3: {TOO_LONG}"),
    "clusters-scores-field-too-long": (
        CLUSTERS + ["--reviews", "reviews.jsonl"],
        {"scores.csv": f"# config {{}}\n{','.join(SCORES_COLUMNS)}\n"
                       f"{LONG_FIELD},a000,u1,3,boost,1.0\n"},
        EXIT_DATA, f"scores file scores.csv is malformed: line 3: {TOO_LONG}"),
    "stats-cdf-field-too-long": (
        ["stats", "cdf", "--scores", "s.csv", "--out", "cdf.csv"],
        {"s.csv": f"score\n1.0\n{LONG_FIELD}\n"}, EXIT_DATA, f"s.csv: line 3: {TOO_LONG}"),
    "config-null-top": (PIPELINE + ["--config", "run.json"], config_file(top=None), EXIT_CONFIG,
                        "top must be an integer, got None"),
    "config-null-format": (PIPELINE + ["--config", "run.json"], config_file(format=None),
                           EXIT_CONFIG, "format must be a string, got None"),
    "config-null-provider": (PIPELINE + ["--config", "run.json"], config_file(provider=None),
                             EXIT_CONFIG, "provider must be a string, got None"),
    "config-decay-401-digits": (PIPELINE + ["--config", "run.json"],
                                config_file(decay=DIGITS_401), EXIT_CONFIG,
                                f"decay must be a finite number, got {DIGITS_401}"),
    "synth-background-rate-401-digits": (
        SYNTH, spec_file(background_rate=DIGITS_401), EXIT_CONFIG,
        f"background_rate must be a finite number, got {DIGITS_401}"),
    "synth-injection-without-tick": (
        SYNTH, spec_file(injections=[{"app_id": "a000", "n_edges": 1, "n_reviewers_used": 1,
                                      "score_mode": "boost"}]),
        EXIT_CONFIG, "Injection lacks the field 'tick'"),
    "events-unknown-key": (CLUSTERS + ["--reviews", "reviews.jsonl"], events_file(sed=5),
                           EXIT_DATA, "line 1: unknown MicroclusterEvent key 'sed'"),
    "events-ratio-401-digits": (CLUSTERS + ["--reviews", "reviews.jsonl"],
                                events_file(ratio=DIGITS_401), EXIT_DATA,
                                f"line 1: ratio must be a finite number, got {DIGITS_401}"),
    "catalog-names-a-column-twice": (
        PIPELINE + ["--origin", "0", "--catalog", "c.csv"],
        {"c.csv": "app_id,overall_rating,app_id\na000,3.5,a001\n"},
        EXIT_DATA, "catalog file c.csv: header names column 'app_id' twice"),
    "stats-csv-only-comments": (["stats", "cdf", "--scores", "s.csv", "--out", "cdf.csv"],
                                {"s.csv": "# score\n# 1.0\n"}, EXIT_DATA,
                                "s.csv: no column 'score'"),
    "synth-no-apps": (SYNTH, spec_file(n_apps=0), EXIT_CONFIG, NOT_POSITIVE),
    "synth-no-reviewers": (SYNTH, spec_file(n_reviewers=0), EXIT_CONFIG, NOT_POSITIVE),
    "synth-no-ticks": (SYNTH, spec_file(ticks=0), EXIT_CONFIG, NOT_POSITIVE),
    "synth-period-zero": (SYNTH, spec_file(period=0), EXIT_CONFIG,
                          "period must be positive, got 0"),
    "synth-injection-negative-edges": (SYNTH, injection_spec(n_edges=-1), EXIT_CONFIG,
                                       BAD_INJECTION),
    "synth-injection-without-reviewers": (SYNTH, injection_spec(n_reviewers_used=0),
                                          EXIT_CONFIG, BAD_INJECTION),
    "scores-review-scored-twice": (
        CLUSTERS + ["--reviews", "reviews.jsonl"],
        {"scores.csv": f"{','.join(SCORES_COLUMNS)}\n" + "b0000195,a008,u1,1,boost,0.0\n" * 2},
        EXIT_DATA, "scores.csv is malformed: line 3: review_id 'b0000195' is scored twice"),
    "event-listed-twice": (CLUSTERS + ["--reviews", "reviews.jsonl"],
                           {"events.jsonl": CAMPAIGN_EVENT * 2}, EXIT_DATA,
                           "event for app 'a003' at tick 12 (boost) is listed twice"),
    "sidecar-review-id-twice": (PAIRS + ["--provider", "file", "--embeddings", "vecs.jsonl"],
                                {"vecs.jsonl": '{"review_id": "b0000001", "vector": [1, 0]}\n'
                                               '{"review_id": "b0000001", "vector": [0, 1]}\n'},
                                EXIT_DATA, "vecs.jsonl:2: review_id 'b0000001' given twice"),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_failure_exits_with_its_code_naming_the_cause_and_writes_nothing(
        synth_files, tmp_path, monkeypatch, capsys, caplog, case):
    argv, files, code, message = EXIT_CASES[case]
    monkeypatch.chdir(tmp_path)
    if "tick-gap" in case:  # the bound takes about 14 s to reach; a lower one fails alike
        monkeypatch.setattr(detector, "_DECAY_WORK_LIMIT", 2**22)
    if argv[0] == "clusters":
        score_files("reviews.jsonl", "apps.csv", tmp_path)
    for name, text in files.items():
        if name.endswith("/"):
            (tmp_path / name).mkdir(parents=True)
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == code
    assert message in caplog.text
    if case.endswith("sidecar-lacks-a-vector"):  # the plain cause, not a KeyError repr
        assert caplog.records[-1].getMessage().startswith(message)
    assert sorted(tmp_path.rglob("*")) == before  # no output is left behind
    assert capsys.readouterr().out == ""


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(cli._CONFIG)), value=JSON_VALUES)
def test_any_json_value_for_a_config_key_gives_a_config_or_a_config_failure(
        tmp_path_factory, key, value):
    """A config file of ``origin`` 0 and any JSON value for one key reads
    to a detector config or fails as a configuration error, never another
    exception."""
    path = tmp_path_factory.getbasetemp() / "config-property.json"
    path.write_text(json.dumps({"origin": 0, key: value}), encoding="utf-8")
    try:
        config = cli._detector_config(cli._effective_config(argparse.Namespace(config=str(path))))
    except cli.ConfigFailure:
        return
    assert isinstance(config, DetectorConfig)


def in_process_argv(command: str, reviews, catalog, tmp_path) -> list[str]:
    if command == "pipeline":
        return ["pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
                "--out-dir", str(tmp_path / "out"), "--origin", "0"]
    return ["stats", "network", "--reviews", str(reviews), "--out", str(tmp_path / "net.csv")]


def gc_state() -> tuple[int, bool]:
    return gc.get_freeze_count(), gc.isenabled()


class TestInProcess:
    """What a program calling ``main`` in-process relies on: an exit code
    returned, not raised; output only through ``sys.stdout`` and
    ``sys.stderr``; no thread left running; and the collector left as the
    caller set it."""

    @pytest.mark.parametrize("caller_froze", [False, True])
    @pytest.mark.parametrize("command", ["pipeline", "network"])
    def test_main_returns_writing_nothing_to_fd_1(self, synth_files, tmp_path, capfd, command,
                                                   caller_froze):
        reviews, _, catalog = synth_files
        out, err = io.StringIO(), io.StringIO()
        if caller_froze:
            gc.freeze()
        try:
            before, threads = gc_state(), threading.active_count()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(in_process_argv(command, reviews, catalog, tmp_path))
            after = gc_state()
        finally:
            if caller_froze:
                gc.unfreeze()
        assert code == EXIT_OK
        assert threading.active_count() == threads
        assert after[1] == before[1]
        if caller_froze:  # frozen objects may die, but none is unfrozen or frozen anew
            assert 0 < after[0] <= before[0]
        else:
            assert after[0] == before[0] == 0
        assert capfd.readouterr().out == ""
        if command == "pipeline":
            assert json.loads(out.getvalue())["events"] >= 1

    @pytest.mark.parametrize("case", ["exit-2", "exit-3", "version"])
    def test_failing_runs_leave_the_collector_as_they_found_it(self, tmp_path, case):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        argv, code = {"exit-2": (["stats", "network", "--reviews", str(bad)], EXIT_DATA),
                      "exit-3": (["pipeline", "--bogus"], EXIT_CONFIG),
                      "version": (["--version"], None)}[case]
        before = gc_state()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if code is None:  # argparse's --version action exits 0
                with pytest.raises(SystemExit) as err:
                    main(argv)
                assert err.value.code == 0
            else:
                assert main(argv) == code
        assert gc_state() == before


ROOT = Path(__file__).resolve().parents[1]
# The console script's entry, with a collection after ``main`` returns: a
# file left in a reference cycle is finalized there, and warns.
COLLECTED_ENTRY = ("import gc, sys; from reviewstream.cli import main; "
                   "c = main(); gc.collect(); sys.exit(c)")


@pytest.mark.parametrize("command", ["pipeline", "network"])
def test_cli_leaves_no_file_for_teardown_to_close(synth_files, tmp_path, command):
    """Teardown collects nothing once ``main`` froze the heap at exit, so
    no file may be left for it to close: with unclosed files an error,
    the command exits 0 and reports none."""
    reviews, _, catalog = synth_files
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *([path] if path else [])])}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", COLLECTED_ENTRY,
         *in_process_argv(command, reviews, catalog, tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    for marker in ("ResourceWarning", "unclosed", "Exception ignored"):
        assert marker not in proc.stderr


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("reviewstream ")

    def test_unknown_flag_exits_3(self):
        assert main(["pipeline", "--bogus"]) == EXIT_CONFIG

    def test_unknown_command_exits_3(self):
        assert main(["frobnicate"]) == EXIT_CONFIG


def test_pipeline_clusters_and_pairs_build_no_review_edge(synth_files, tmp_path, monkeypatch):
    """Reviews stay columns from the parse to every output: ``pipeline``,
    ``clusters`` and ``pairs`` construct no ``ReviewEdge``."""
    reviews, _, catalog = synth_files
    scores, events = score_files(reviews, catalog, tmp_path)
    built = []
    init = ReviewEdge.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.review_id)

    monkeypatch.setattr(ReviewEdge, "__init__", counting_init)
    assert run_pipeline(reviews, catalog, tmp_path / "out") == EXIT_OK
    report = json.loads((tmp_path / "out" / "clusters.json").read_text(encoding="utf-8"))
    assert report[0]["pair_count"] > 0  # the report read the members' texts
    assert main(["clusters", "--reviews", str(reviews), "--scores", str(scores),
                 "--events", str(events), "--out", str(tmp_path / "c.json")]) == EXIT_OK
    assert main(["pairs", "--reviews", str(reviews), "--out", str(tmp_path / "p.json")]) == EXIT_OK
    assert built == []


APP_IDS = st.one_of(
    st.sampled_from(["", "a", "a,b", ",", 'say "hi"', '"', "\r", "\n", "a\r\nb", " a ",
                     "\u00e9t\u00e9", "\u65e5\u672c", "#x", "a,,b", "\t"]),
    st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(reviews=st.lists(st.tuples(st.integers(0, 4), APP_IDS), max_size=30))
def test_network_csv_matches_csv_writer(reviews):
    """Each app id quoted once and the rows joined give the bytes that
    ``csv.writer`` writes row by row, for ids holding commas, quotes,
    line breaks, nothing at all or non-ASCII text."""
    edges = [ReviewEdge(f"r{i}", f"u{u}", app, 0, 5) for i, (u, app) in enumerate(reviews)]
    graph = shared_reviewer_graph(ReviewTable.from_edges(edges))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["app_a", "app_b", "weight"])
    writer.writerows(graph_rows(graph))
    chunks = []
    cli._network_csv(graph, chunks.append)
    assert "".join(chunks) == expected.getvalue()
    apps = sorted({app for _, app in reviews})
    for app, quoted in zip(apps, cli._quoted(apps), strict=True):
        cell = io.StringIO()
        csv.writer(cell, lineterminator="\n").writerow([app, "x"])
        assert quoted == cell.getvalue()[:-3]
        assert quoted is app or quoted != app  # an unquoted id is not copied
