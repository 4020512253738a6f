"""Traced in-process run: per-layer metrics measured from outside.

The benchmark imports ``reviewstream.cli`` from the checkout, replaces
the layer entry points that ``cli`` resolves with span-recording
wrappers, and calls ``cli.main`` for ``pipeline`` and ``stats network``.
No program code changes. An entry point that can no longer be found, or
that the run never called, is reported as missing and the metrics that
need it are left out, never reported as zero.

Some counts come from the inputs rather than from the program:
sketch collisions use ``CountMinSketch.locate`` with the default
geometry over the apps the stream scores, and the network pair
expansion is the generator's sum of C(app-degree, 2) over reviewers.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Recorder, Span, self_time, union_length

ENTRY_POINTS = (
    "parse_reviews", "parse_apps", "summarize", "partition_stream", "run_detector",
    "collect_clusters", "rank_clusters", "build_cluster_report", "welch_t", "ecdf",
    "write_scores_csv", "write_events_jsonl", "shared_reviewer_graph",
)


def _counts(name: str, captured: list):
    """Per-entry-point count extractor, run on (args, result) of a call."""
    if name in ("parse_reviews", "parse_apps"):
        return lambda args, r: {"items": len(r[0]), "rejected": len(r[1])}
    if name == "partition_stream":
        return lambda args, r: {"edges": sum(r.counts().values())}
    if name == "run_detector":
        def detector(args, r):
            captured.append(args)
            return {"edges": len(r[0]), "events": len(r[1])}
        return detector
    if name == "collect_clusters":
        return lambda args, r: {"formed": len(r), "max_size": max((c.size for c in r), default=0)}
    if name == "build_cluster_report":
        return lambda args, r: {
            "reported": len(r),
            "pairs_evaluated": sum((e["size"] - e["textless_count"])
                                   * (e["size"] - e["textless_count"] - 1) // 2 for e in r),
            "pairs_found": sum(e["pair_count"] for e in r),
        }
    if name == "shared_reviewer_graph":
        return lambda args, r: {"edges": len(r)}
    return None


@contextlib.contextmanager
def _patched(module, attrs: dict):
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def _import_program(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from reviewstream import cli, detector, sketch

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"reviewstream imported from {cli.__file__}, not from {src}")
    return cli, detector, sketch


def _traced_call(cli, argv: list[str], rec: Recorder, missing: list, captured: list,
                 log) -> int:
    wrappers = {}
    for name in ENTRY_POINTS:
        fn = getattr(cli, name, None)
        if fn is None:
            if name not in missing:
                missing.append(name)
            continue
        wrappers[name] = rec.wrap(name, fn, _counts(name, captured))
    main = rec.wrap("cli", cli.main)
    with _patched(cli, wrappers), contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        return main(argv)


def _total(spans: list[Span]) -> float:
    return sum(s.duration for s in spans)


def collide_all_rows_frac(sketch_module, config, app_ids: list[str]) -> float:
    """Share of apps whose column is shared with another app in every row."""
    cms = sketch_module.CountMinSketch(config.rows, config.cols, config.row_seeds())
    slots = [cms.locate(a) for a in app_ids]
    per_row = [Counter(s[r] for s in slots) for r in range(config.rows)]
    collide = sum(all(per_row[r][s[r]] > 1 for r in range(config.rows)) for s in slots)
    return collide / len(app_ids)


def src_loc(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py")))


def traced_run(root: Path, inputs: Path, out_dir: Path, truth: dict, log_path: Path):
    """Run ``pipeline`` and ``stats network`` in-process with spans.

    Returns ({metric: (value, unit)}, missing entry points, exit codes).
    """
    src = root / "src"
    cli, detector, sketch = _import_program(src)
    missing: list[str] = []
    captured: list[tuple] = []
    sketches: list = []

    class RecordingSketch(sketch.CountMinSketch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sketches.append(self)

    out_dir.mkdir(parents=True, exist_ok=True)
    pipe, net = Recorder(), Recorder()
    root_logger = logging.getLogger()
    saved_handlers = list(root_logger.handlers)
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            with _patched(detector, {"CountMinSketch": RecordingSketch}):
                pipe_code = _traced_call(
                    cli, ["pipeline", "--reviews", str(inputs / "reviews.jsonl"),
                          "--catalog", str(inputs / "catalog.csv"), "--out-dir", str(out_dir),
                          "--origin", "0", "--period", str(truth["period"])],
                    pipe, missing, captured, log)
            net_code = _traced_call(
                cli, ["stats", "network", "--reviews", str(inputs / "reviews.jsonl"),
                      "--out", str(out_dir / "network.csv")],
                net, missing, [], log)
        finally:
            root_logger.handlers[:] = saved_handlers

    with open(out_dir.parent / f"{out_dir.name}-spans.json", "w", encoding="utf-8") as fh:
        json.dump({"pipeline": pipe.dump(), "network": net.dump()}, fh, indent=1)

    # Single-threaded baseline: the same detector calls, one after another.
    sequential = None
    if captured:
        run_detector = detector.run_detector
        start = time.perf_counter()
        for edges, config, label in sorted(captured, key=lambda a: a[2].value):
            run_detector(edges, config, label)
        sequential = time.perf_counter() - start

    m: dict[str, tuple[float, str]] = {}

    def spans(rec: Recorder, name: str) -> list[Span] | None:
        """The entry point's spans; None, and listed as missing, if it never ran."""
        found = rec.named(name)
        if not found and name not in missing:
            missing.append(name)
        return found or None

    p_root, n_root = pipe.named("cli")[0], net.named("cli")[0]
    m["trace.pipeline_s"] = (p_root.duration, "s")
    m["trace.network_s"] = (n_root.duration, "s")
    m["cli.pipeline_self_s"] = (self_time(p_root, pipe.spans), "s")
    m["cli.network_self_s"] = (self_time(n_root, net.spans), "s")

    parse = spans(pipe, "parse_reviews")
    apps = spans(pipe, "parse_apps")
    if parse and apps:
        m["ingest.parse_s"] = (_total(parse) + _total(apps), "s")
        m["ingest.edges_per_s"] = (parse[0].counts["items"] / parse[0].duration, "edges/s")
        m["ingest.rejected"] = (parse[0].counts["rejected"] + apps[0].counts["rejected"], "count")
    part = spans(pipe, "partition_stream")
    if part:
        m["partition.partition_s"] = (part[0].duration, "s")
        m["partition.edges_per_s"] = (part[0].counts["edges"] / part[0].duration, "edges/s")
    det = spans(pipe, "run_detector")
    if det:
        busy = _total(det)
        m["detector.busy_s"] = (busy, "s")
        m["detector.wall_s"] = (union_length([(s.start, s.end) for s in det]), "s")
        m["detector.sequential_s"] = (sequential, "s")
        m["detector.edges_per_s"] = (sum(s.counts["edges"] for s in det) / busy, "edges/s")
        m["detector.events"] = (sum(s.counts["events"] for s in det), "count")
    for key, name in (("detector.write_scores_s", "write_scores_csv"),
                      ("detector.write_events_s", "write_events_jsonl"),
                      ("clusters.collect_s", "collect_clusters"),
                      ("clusters.rank_s", "rank_clusters"),
                      ("clusters.report_s", "build_cluster_report"),
                      ("stats.summarize_s", "summarize"),
                      ("stats.welch_s", "welch_t"),
                      ("stats.ecdf_s", "ecdf")):
        found = spans(pipe, name)
        if found is not None:
            m[key] = (_total(found), "s")
    collect = spans(pipe, "collect_clusters")
    if collect:
        m["clusters.formed"] = (collect[0].counts["formed"], "count")
        m["clusters.max_size"] = (collect[0].counts["max_size"], "count")
    report = spans(pipe, "build_cluster_report")
    if report:
        c = report[0].counts
        m["clusters.reported"] = (c["reported"], "count")
        m["clusters.pairs_evaluated"] = (c["pairs_evaluated"], "pairs")
        m["clusters.pairs_found"] = (c["pairs_found"], "pairs")
        m["clusters.pair_hit_ratio"] = (c["pairs_found"] / max(c["pairs_evaluated"], 1), "ratio")
        m["clusters.pairs_per_s"] = (c["pairs_evaluated"] / report[0].duration, "pairs/s")
    graph = spans(net, "shared_reviewer_graph")
    if graph:
        m["stats.network_graph_s"] = (graph[0].duration, "s")
        m["stats.network_edges"] = (graph[0].counts["edges"], "count")
    m["stats.network_increments"] = (truth["network_increments"], "count")

    config = detector.DetectorConfig(origin=0, period=truth["period"])
    m["sketch.collide_all_rows_frac"] = (
        collide_all_rows_frac(sketch, config, truth["scored_apps"]), "ratio")
    m["sketch.memory_bytes"] = (sum(s.memory_bytes for s in sketches), "bytes")
    m["src_loc"] = (src_loc(src), "lines")
    return m, missing, (pipe_code, net_code)
