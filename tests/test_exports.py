"""The package's exported names stay in step with what its ``__init__``
imports, and names removed from the library stay gone."""

import ast
import re
from collections.abc import Sized
from pathlib import Path

import reviewstream
from reviewstream import cli, clusters, detector, ingest, partition, sketch, stats, synth

ROOT = Path(__file__).resolve().parents[1]

# Names removed from the library's modules, and members removed from its classes.
REMOVED_NAMES = {
    ingest: ["AppCatalog", "read_reviews_jsonl", "read_app_catalog_csv", "review_to_dict",
             "review_to_line", "to_tick"],
    partition: ["classify"],
    clusters: ["pairwise_similarity", "SimilarityPair"],
    detector: ["evaluate_burst"],
    stats: ["SharedReviewerEdge"],
    synth: ["gen_background", "inject_lockstep"],
    cli: ["_write_json"],
}
REMOVED_MEMBERS = [
    (detector.Detector, "tick"), (sketch.CountMinSketch, "insert_at"),
    (sketch.CountMinSketch, "estimate_at"), (sketch.CountMinSketch, "clear"),
    (stats.SharedReviewerGraph, "__iter__"), (stats.EcdfPoints, "fraction_at"),
    (detector.ScoredStream, "edges"), (ingest.ReviewTable, "edges"),
    (clusters.LexicalEmbedder, "vector"), (clusters.FileEmbedder, "vector"),
    (stats.SharedReviewerGraph, "rows"), (clusters.PairAnalysis, "pairs"),
    (detector.Detector, "finish"),
]
# The columnar review types: exported, and documented in the README.
TABLE_TYPES = ["ReviewTable", "ReviewRows"]


def test_all_has_no_duplicates_and_every_name_resolves():
    names = reviewstream.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(reviewstream, name)] == []


def test_every_public_import_is_exported():
    tree = ast.parse((ROOT / "src" / "reviewstream" / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(n for n in imported if not n.startswith("_")) == sorted(
        n for n in reviewstream.__all__ if n != "__version__")


def test_removed_names_stay_gone():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for module, names in REMOVED_NAMES.items():
        for name in names:
            assert not hasattr(module, name), name
            assert name not in reviewstream.__all__
            assert not re.search(rf"\b{name}\b", readme), name
    for cls, name in REMOVED_MEMBERS:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_table_types_are_exported_and_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in TABLE_TYPES:
        assert name in reviewstream.__all__
        assert getattr(reviewstream, name) is getattr(ingest, name)
        assert re.search(rf"`{name}`", readme), name
    assert "ReviewTable.from_edges" in readme and "table.rows(" in readme


# The layer entry points the benchmark's trace wraps where ``cli`` resolves them.
ENTRY_POINTS = ("parse_reviews", "parse_apps", "summarize", "partition_stream", "run_detector",
                "collect_clusters", "rank_clusters", "build_cluster_report", "welch_t", "ecdf",
                "write_scores_csv", "write_events_jsonl", "shared_reviewer_graph")


def test_every_benchmark_entry_point_is_bound_in_cli(synth_files, tmp_path, monkeypatch):
    """``pipeline`` and ``stats network``, run in-process, call each entry
    point through ``cli``'s globals, and each result has the shape that
    the trace's counters read (``perfbench/layers.py``)."""
    results: dict[str, list] = {name: [] for name in ENTRY_POINTS}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            results[name].append(fn(*args, **kwargs))
            return results[name][-1]
        return wrapper

    for name in ENTRY_POINTS:
        assert callable(getattr(cli, name)), name
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    reviews, _, catalog = synth_files
    assert cli.main(["pipeline", "--reviews", str(reviews), "--catalog", str(catalog),
                     "--out-dir", str(tmp_path / "out"), "--origin", "0"]) == cli.EXIT_OK
    assert cli.main(["stats", "network", "--reviews", str(reviews),
                     "--out", str(tmp_path / "network.csv")]) == cli.EXIT_OK
    assert [name for name, calls in results.items() if not calls] == []
    for name in ("parse_reviews", "parse_apps", "run_detector"):
        for result in results[name]:
            assert len(result) == 2 and all(isinstance(part, Sized) for part in result), name
    for formed in results["collect_clusters"]:
        assert isinstance(formed, Sized) and len(formed) > 0
        assert all(type(cluster.size) is int for cluster in formed)
    for report in results["build_cluster_report"]:
        assert len(report) > 0
        assert all(type(entry[key]) is int for entry in report
                   for key in ("size", "textless_count", "pair_count"))
    for partitioned in results["partition_stream"]:
        assert type(sum(partitioned.counts().values())) is int
    assert all(isinstance(graph, Sized) for graph in results["shared_reviewer_graph"])
    assert detector.CountMinSketch is sketch.CountMinSketch
