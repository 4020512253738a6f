"""Command-line entry point wiring the stages into a reproducible pipeline.

Subcommands: ingest, score, clusters, pairs, stats (ttest/cdf/network),
synth, and pipeline. Every stage reads and writes plain files so stages
can be rerun independently; `pipeline` chains them and records a run
manifest with input digests and the full effective configuration.

Exit codes: 0 success; 2 data failure (parse error rate above the
threshold, inconsistent stage inputs, a malformed or undecodable input
file, malformed embedding sidecar, a tick gap too costly to decay);
3 configuration failure (bad flags or config file, missing input files,
invalid parameters).
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import hashlib
import json
import logging
import math
import sys
import time
import typing
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .clusters import (
    EmbeddingFileError,
    FileEmbedder,
    InconsistentRunError,
    LexicalEmbedder,
    MissingEmbeddingError,
    PairAnalysis,
    build_cluster_report,
    collect_clusters,
    rank_clusters,
)
from .detector import (
    DetectorConfig,
    MicroclusterEvent,
    ScoredStream,
    TickGapError,
    read_events_jsonl,
    read_scores_csv,
    run_detector,
    write_events_jsonl,
    write_scores_csv,
)
from .ingest import (
    REVIEW_FORMATS,
    BeforeOriginError,
    LineError,
    ReviewTable,
    _quoted,
    check_csv_header,
    csv_after_comments,
    json_value,
    parse_apps,
    parse_reviews,
    write_app_catalog_csv,
    write_columns,
    write_line_errors,
    write_reviews_jsonl,
)
from .partition import PartitionResult, SubstreamLabel, partition_stream
from .stats import (
    DegenerateSamplesError,
    SharedReviewerGraph,
    TailHelper,
    TooSmallError,
    ecdf,
    shared_reviewer_graph,
    summarize,
    welch_t,
)
from .synth import RNG_ALGORITHM, SynthSpec, gen_stream, write_truth_jsonl

logger = logging.getLogger("reviewstream")

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3


class ConfigFailure(Exception):
    """Maps to exit code 3."""


class DataFailure(Exception):
    """Maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise ConfigFailure(message)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigFailure(f"{what} file not found: {path}")
    return p


def _sha256(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load(parse, path: Path, effective: dict, what: str, errors_out: str | None = None,
          **kwargs):
    """Parse an input file; abort if too many of its lines were rejected,
    after appending them to ``errors_out`` if given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            items, errors = parse(fh, **kwargs)
    except UnicodeDecodeError as exc:
        raise DataFailure(f"{what} file {path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # a CSV header that names a column twice, a field too long
        raise DataFailure(f"{what} file {path}: {exc}")
    if errors_out:
        write_line_errors(errors, errors_out, source=str(path))
    total = len(items) + len(errors)
    threshold = effective["max_error_rate"]
    if total and len(errors) / total > threshold:
        raise DataFailure(
            f"{what}: {len(errors)} of {total} records rejected "
            f"({len(errors) / total:.2%} > {threshold:.2%})"
        )
    return items, errors


def _load_reviews(path: Path, effective: dict, errors_out: str | None = None):
    return _load(parse_reviews, path, effective, "reviews", errors_out,
                 format=effective["format"])


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


_PAIR = '%s\n  {\n   "a": %s,\n   "b": %s,\n   "similarity": %r\n  }'  # at depth 2


def _pairs_json(head: dict, pairs: Iterable[dict], write) -> None:
    """Write ``_json_text({**head, "pairs": list(pairs)})`` a pair at a time."""
    before, _, after = _json_text({**head, "pairs": []}).rpartition('"pairs": []')
    write(before + '"pairs": [')
    separator = ""
    for pair in pairs:
        write(_PAIR % (separator, encode_basestring_ascii(pair["a"]),
                       encode_basestring_ascii(pair["b"]), pair["similarity"]))
        separator = ","
    write(("\n ]" if separator else "]") + after)


def _network_csv(graph: SharedReviewerGraph, write) -> None:
    """Write the ``app_a,app_b,weight`` CSV of a graph, each app id quoted once."""
    quoted = _quoted(graph.apps)
    write("app_a,app_b,weight\n")
    write_columns(write, "%s,%s,%d\n", len(graph),
                  lambda s: map(quoted.__getitem__, graph.app_a[s].tolist()),
                  lambda s: map(quoted.__getitem__, graph.app_b[s].tolist()),
                  lambda s: graph.weight[s].tolist())


def _ecdf_csv(values: Sequence[float], write) -> None:
    """Write the `value,fraction` CSV of the empirical CDF; only the header if empty."""
    write("value,fraction\n")
    if len(values):
        points = ecdf(values)
        write_columns(write, "%r,%r\n", len(points.values), lambda s: points.values[s].tolist(),
                      lambda s: points.fractions[s].tolist())


def _emit(write_to, out: str | None) -> None:
    """Call ``write_to`` with the write method of the file ``out``, or of stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            write_to(fh.write)
    else:
        write_to(sys.stdout.write)


# ---------------------------------------------------------------------------
# Configuration merging: defaults < JSON config file < explicit flags.

class _Key(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None


_DETECTOR_HELP = {
    "origin": "tick 1 anchor, seconds (required)",
    "period": "tick width in seconds",
    "burst_factor": "burst ratio threshold, > 1",
    "decay": "per-tick history decay in [0,1]",
    "filter_threshold": "score above which a tick is excluded from history",
    "min_prior": "denominator guard for the burst ratio",
    "rows": "sketch hash rows",
    "cols": "sketch counters per row",
    "sketch_seed": "master seed for the per-row hash seeds",
}


# The detector keys are DetectorConfig's fields, with their types and defaults.
_DETECTOR_TYPES = typing.get_type_hints(DetectorConfig)
_DETECTOR_KEYS = tuple(_DETECTOR_TYPES)
_CONFIG = {
    **{
        f.name: _Key(_DETECTOR_TYPES[f.name], None if f.default is dataclasses.MISSING
                     else f.default, _DETECTOR_HELP[f.name])
        for f in dataclasses.fields(DetectorConfig)
    },
    "max_error_rate": _Key(float, 0.01, "tolerated parse error fraction before aborting"),
    "format": _Key(str, "jsonl", "reviews file format", REVIEW_FORMATS),
    "top": _Key(int, 50, "clusters to report"),
    "tau": _Key(float, None, "near-identical similarity threshold (default per provider)"),
    "provider": _Key(str, LexicalEmbedder.name, "embedding provider",
                     (LexicalEmbedder.name, FileEmbedder.name)),
    "embeddings": _Key(str, None, "JSONL sidecar of {review_id, vector}"),
}
_PAIR_KEYS = ("tau", "provider", "embeddings")


def _coerce(key: str, value):
    """``value`` checked by ``json_value`` as the key's type; an int for a float converts."""
    spec = _CONFIG[key]
    try:
        value = json_value(key, spec.type, value)
    except ValueError as exc:
        raise ConfigFailure(str(exc))
    if spec.choices is not None and value not in spec.choices:
        raise ConfigFailure(f"{key} must be one of {list(spec.choices)}, got {value!r}")
    return float(value) if spec.type is float else value


def _effective_config(args: argparse.Namespace) -> dict:
    effective = {key: spec.default for key, spec in _CONFIG.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        path = _require_file(config_path, "config")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigFailure(f"config file {path} is not UTF-8 text: {exc}")
        except (ValueError, RecursionError) as exc:  # also an integer of over 4300 digits
            raise ConfigFailure(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigFailure(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG)
        if unknown:
            raise ConfigFailure(f"unknown config keys: {sorted(unknown)}")
        effective.update(loaded)
    for key, spec in _CONFIG.items():
        flag = getattr(args, key, None)
        value = effective[key] if flag is None else flag
        if value is not None or spec.default is not None:  # null stays only as a default
            effective[key] = _coerce(key, value)
    if effective["top"] < 1:
        raise ConfigFailure(f"top must be at least 1, got {effective['top']}")
    if not 0.0 <= effective["max_error_rate"] <= 1.0:
        raise ConfigFailure(f"max_error_rate must be in [0, 1], got {effective['max_error_rate']}")
    tau = effective["tau"]
    if tau is not None and not 0.0 < tau <= 1.0:
        raise ConfigFailure(f"tau must be in (0, 1], got {tau}")
    return effective


def _detector_config(effective: dict) -> DetectorConfig:
    if effective["origin"] is None:
        raise ConfigFailure(
            "origin is required (tick 1 anchor, seconds); pass --origin or "
            "set it in the config file"
        )
    config = DetectorConfig(**{key: effective[key] for key in _DETECTOR_KEYS})
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigFailure(str(exc))
    return config


def _provider(effective: dict):
    if effective["provider"] == FileEmbedder.name:
        if not effective["embeddings"]:
            raise ConfigFailure("provider 'file' requires --embeddings <path>")
        provider = FileEmbedder.load(_require_file(effective["embeddings"], "embeddings"))
    elif effective["embeddings"]:
        raise ConfigFailure(f"embeddings needs provider 'file', not {effective['provider']!r}")
    else:
        provider = LexicalEmbedder()
    tau = effective["tau"]
    return provider, provider.default_tau if tau is None else tau


def _parse_column_ref(ref: str) -> tuple[Path, str]:
    path_part, sep, column = ref.rpartition(":")
    if sep and column and "/" not in column and "\\" not in column:
        return _require_file(path_part, "csv"), column
    return _require_file(ref, "csv"), "score"


def _read_csv_column(path: Path, column: str) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _, reader = csv_after_comments(fh)
            _, header = next(reader, (0, []))
            check_csv_header(header)
            rows = [row for _, row in reader]
    except UnicodeDecodeError as exc:
        raise DataFailure(f"csv file {path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # a column named twice, a field past csv.field_size_limit()
        raise DataFailure(f"{path}: {exc}")
    if column not in header:
        raise DataFailure(f"{path}: no column {column!r}")
    idx = header.index(column)
    values = []
    for row in rows:
        if not row:
            continue
        try:
            value = float(row[idx])
        except (IndexError, ValueError):
            raise DataFailure(f"{path}: bad value in column {column!r}: {row}")
        if not math.isfinite(value):
            raise DataFailure(f"{path}: non-finite value in column {column!r}: {row}")
        values.append(value)
    return values


# ---------------------------------------------------------------------------
# Stages shared by the subcommands. They call the layer entry points
# through this module's globals, where the benchmark's layer trace wraps them.

def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far (``VmHWM``), or None where
    ``/proc/self/status`` does not exist."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            kb = next((int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), None)
    except OSError:
        return None
    return None if kb is None else round(kb / 1024, 1)


class _Stages(dict):
    """Seconds, items in and out and the peak RSS so far at the end of each
    stage, for the manifest: a stage runs from the ``done`` call before it
    to its own."""

    def __init__(self) -> None:
        self._mark = time.perf_counter()
        self._peak = 0.0

    def done(self, name: str, items_in: int, items_out: int) -> None:
        now = time.perf_counter()
        self[name] = {"seconds": round(now - self._mark, 6), "in": items_in, "out": items_out}
        peak = _peak_rss_mb()
        if peak is not None:  # a later VmHWM reading can be lower than an earlier one
            self._peak = self[name]["peak_rss_mb"] = max(self._peak, peak)
        self._mark = now


@dataclasses.dataclass
class _Scored:
    reviews_path: Path
    catalog_path: Path
    review_errors: list[LineError]
    catalog_errors: list[LineError]
    partitioned: PartitionResult
    scored: ScoredStream
    events: list[MicroclusterEvent]
    stages: _Stages
    detector: dict[str, dict]  # each sub-stream's detector counters


def _load_and_score(args: argparse.Namespace, effective: dict, config: DetectorConfig,
                    **logged) -> _Scored:
    """Load reviews and catalog, check their error rates, and score the
    boost then the sink sub-stream."""
    reviews_path = _require_file(args.reviews, "reviews")
    catalog_path = _require_file(args.catalog, "catalog")
    logger.info("effective config: %s",
                json.dumps({**config.to_dict(), **logged}, sort_keys=True))
    stages = _Stages()
    table, review_errors = _load_reviews(reviews_path, effective)
    stages.done("parse_reviews", len(table) + len(review_errors), len(table))
    catalog, catalog_errors = _load(parse_apps, catalog_path, effective, "catalog")
    stages.done("parse_catalog", len(catalog) + len(catalog_errors), len(catalog))
    ordered = np.argsort(table.timestamp, kind="stable")  # ties keep input order
    partitioned = partition_stream(table.rows(ordered), catalog)
    stages.done("partition", len(table), sum(partitioned.counts().values()))
    try:
        boost, boost_events = run_detector(partitioned.boost, config, SubstreamLabel.BOOST)
        stages.done("detect_boost", len(partitioned.boost), len(boost))
        sink, sink_events = run_detector(partitioned.sink, config, SubstreamLabel.SINK)
        stages.done("detect_sink", len(partitioned.sink), len(sink))
    except BeforeOriginError as exc:
        raise ConfigFailure(f"{exc}; lower --origin to at or before the first timestamp")
    return _Scored(reviews_path, catalog_path, review_errors, catalog_errors, partitioned,
                   boost + sink, boost_events + sink_events, stages,
                   {"boost": boost.counters, "sink": sink.counters})


def _cluster_report(events, scored, provider, tau: float, top: int, stages: _Stages):
    """Collect, rank and report clusters; returns (clusters formed, report)."""
    clusters = collect_clusters(events, scored)
    stages.done("collect", len(events), len(clusters))
    report = build_cluster_report(rank_clusters(clusters, top), provider, tau)
    stages.done("report", len(clusters), len(report))
    return len(clusters), report


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_ingest(args: argparse.Namespace) -> int:
    effective = _effective_config(args)
    reviews_path = _require_file(args.reviews, "reviews")
    if args.errors:
        Path(args.errors).unlink(missing_ok=True)
    table, errors = _load_reviews(reviews_path, effective, args.errors)
    write_reviews_jsonl(table, args.out)
    _print_json({"reviews": len(table), "errors": len(errors)})
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    effective = _effective_config(args)
    config = _detector_config(effective)
    run = _load_and_score(args, effective, config)
    write_scores_csv(run.scored, config, args.out_scores)
    write_events_jsonl(run.events, args.out_events)
    _print_json(run.partitioned.counts())
    return EXIT_OK


def _scored_from_files(reviews_path: Path, scores_path: Path, effective: dict):
    table, _ = _load_reviews(reviews_path, effective)
    try:
        return read_scores_csv(scores_path, table)[0]
    except (ValueError, RecursionError) as exc:  # also bad JSON or UTF-8
        raise DataFailure(f"scores file {scores_path} is malformed: {exc}")


def cmd_clusters(args: argparse.Namespace) -> int:
    effective = _effective_config(args)
    provider, tau = _provider(effective)
    reviews_path = _require_file(args.reviews, "reviews")
    scores_path = _require_file(args.scores, "scores")
    events_path = _require_file(args.events, "events")
    scored = _scored_from_files(reviews_path, scores_path, effective)
    try:
        events = read_events_jsonl(events_path)
    except ValueError as exc:  # also bad JSON or UTF-8
        raise DataFailure(f"events file {events_path} is malformed: {exc}")
    formed, report = _cluster_report(events, scored, provider, tau, effective["top"],
                                     _Stages())
    Path(args.out).write_text(_json_text(report), encoding="utf-8")
    _print_json({"clusters": formed, "reported": len(report), "tau": tau})
    return EXIT_OK


def cmd_pairs(args: argparse.Namespace) -> int:
    effective = _effective_config(args)
    provider, tau = _provider(effective)
    table, _ = _load_reviews(_require_file(args.reviews, "reviews"), effective)
    analysis = PairAnalysis(table.review_id, table.text, provider, tau)
    head = {"provider": provider.name, "tau": tau, "evaluated": analysis.evaluated_count,
            "textless": analysis.textless_count, "flagged": sorted(analysis.flagged_review_ids)}
    _emit(lambda write: _pairs_json(head, analysis.ordered(), write), args.out)
    if args.out:
        _print_json({"pairs": analysis.pair_count, "flagged": len(analysis.flagged_review_ids)})
    return EXIT_OK


def cmd_stats_ttest(args: argparse.Namespace) -> int:
    path_a, col_a = _parse_column_ref(args.a)
    path_b, col_b = _parse_column_ref(args.b)
    with TailHelper() as tails:  # scipy loads in a helper process while the columns are read
        sample_a = _read_csv_column(path_a, col_a)
        sample_b = _read_csv_column(path_b, col_b)
        result = welch_t(sample_a, sample_b, tails=tails)
    out = dataclasses.asdict(result)
    out["p"] = result.p_two_sided if args.two_sided else result.p_one_sided
    _print_json(out)
    return EXIT_OK


def cmd_stats_cdf(args: argparse.Namespace) -> int:
    path, column = _parse_column_ref(args.scores)
    values = _read_csv_column(path, column)
    if not values:
        raise DataFailure(f"{path}: no values in column {column!r}")
    _emit(lambda write: _ecdf_csv(values, write), args.out)
    return EXIT_OK


def cmd_stats_network(args: argparse.Namespace) -> int:
    reviews_path = _require_file(args.reviews, "reviews")
    table, _ = _load_reviews(reviews_path, _effective_config(args))
    graph = shared_reviewer_graph(table)
    _emit(lambda write: _network_csv(graph, write), args.out)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec_path = _require_file(args.spec, "spec")
    try:
        spec = SynthSpec.from_dict(json.loads(spec_path.read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as exc:
        raise ConfigFailure(f"bad synth spec {spec_path}: {exc}")
    logger.info("synth rng=%s seed=%d", RNG_ALGORITHM, spec.seed)
    result = gen_stream(spec)
    write_reviews_jsonl(ReviewTable.from_edges(result.edges), args.out)
    write_truth_jsonl(result.truth, args.truth)
    if args.catalog:
        write_app_catalog_csv(result.catalog, args.catalog)
    _print_json({
        **result.metadata,
        "edges": len(result.edges),
        "injected": sum(1 for t in result.truth if t.injected),
    })
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    started = time.monotonic()
    effective = _effective_config(args)
    config = _detector_config(effective)
    provider, tau = _provider(effective)
    top = effective["top"]
    # The t-test's scipy import runs in a helper process; every way out reaps it.
    with TailHelper() as tails:
        run = _load_and_score(args, effective, config, provider=provider.name, tau=tau, top=top)
        stages = run.stages
        summary_counts = summarize(run.partitioned)
        stages.done("summarize", summary_counts.reviews, 1)
        _, report = _cluster_report(run.events, run.scored, provider, tau, top, stages)

        boost_scores = run.scored.scores(SubstreamLabel.BOOST)
        sink_scores = run.scored.scores(SubstreamLabel.SINK)
        try:
            welch = dataclasses.asdict(welch_t(boost_scores, sink_scores, tails=tails))
        except (TooSmallError, DegenerateSamplesError):
            welch = None
    stages.done("ttest", len(boost_scores) + len(sink_scores), int(welch is not None))
    stages["ttest"]["helper_peak_rss_mb"] = tails.peak_rss_mb  # None: tails taken in process

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def target(name: str) -> Path:
        path = out_dir / name
        written.append(path)
        return path

    try:
        errors_path = target("parse_errors.jsonl")
        errors_path.unlink(missing_ok=True)
        errors_path.touch()
        write_line_errors(run.review_errors, errors_path, source=str(run.reviews_path))
        write_line_errors(run.catalog_errors, errors_path, source=str(run.catalog_path))
        write_scores_csv(run.scored, config, target("scores.csv"))
        write_events_jsonl(run.events, target("events.jsonl"))
        target("clusters.json").write_text(_json_text(report), encoding="utf-8")
        for name, scores in (("cdf_boost.csv", boost_scores), ("cdf_sink.csv", sink_scores)):
            with open(target(name), "w", encoding="utf-8") as fh:
                _ecdf_csv(scores, fh.write)
        summary = {
            "counts": dataclasses.asdict(summary_counts),
            "partition": run.partitioned.counts(),
            "events": len(run.events),
            "clusters_reported": len(report),
            "welch_boost_vs_sink": welch,
        }
        target("summary.json").write_text(_json_text(summary), encoding="utf-8")
        stages.done("write", len(run.scored) + len(run.events) + len(report), len(written))
        manifest = {
            "tool": "reviewstream",
            "version": __version__,
            "inputs": {
                name: {"path": str(path), "sha256": _sha256(path)}
                for name, path in (("reviews", run.reviews_path), ("catalog", run.catalog_path),
                                   ("embeddings", effective["embeddings"])) if path
            },
            "config": {**config.to_dict(), **{key: effective[key] for key in _CONFIG
                                               if key not in _DETECTOR_KEYS}, "tau": tau},
            "runtime_seconds": round(time.monotonic() - started, 3),
            "stages": stages,
            "detector": run.detector,
            "parse_errors": {"reviews": Counter(err.reason for err in run.review_errors),
                             "catalog": Counter(err.reason for err in run.catalog_errors)},
        }
        target("manifest.json").write_text(_json_text(manifest), encoding="utf-8")
    except Exception:
        for path in written:
            if not path.is_dir():  # a directory in the way was there before the run
                path.unlink(missing_ok=True)
        raise
    _print_json(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.

def _add_flags(parser, *keys: str) -> None:
    """One ``--key`` flag per config key, declared from ``_CONFIG``."""
    for key in keys:
        spec = _CONFIG[key]
        text = spec.help if spec.default is None else f"{spec.help} (default {spec.default})"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=text,
                            type=None if spec.type is str else spec.type, choices=spec.choices)


def _add_config_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("detector configuration")
    group.add_argument("--config", help="JSON file mirroring these flags; flags override it")
    _add_flags(group, *_DETECTOR_KEYS, "max_error_rate")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reviewstream", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"reviewstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate raw reviews into canonical JSONL")
    p.add_argument("--reviews", required=True)
    _add_flags(p, "format")
    p.add_argument("--out", required=True, help="canonical reviews JSONL")
    p.add_argument("--errors", help="sidecar JSONL for rejected lines")
    _add_flags(p, "max_error_rate")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("score", help="partition a stream and score both sub-streams")
    p.add_argument("--reviews", required=True)
    _add_flags(p, "format")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out-scores", dest="out_scores", required=True)
    p.add_argument("--out-events", dest="out_events", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("clusters", help="rank suspicious clusters and analyze pairs")
    p.add_argument("--reviews", required=True, help="canonical reviews JSONL (for texts)")
    p.add_argument("--scores", required=True, help="scores CSV from `score`")
    p.add_argument("--events", required=True, help="events JSONL from `score`")
    p.add_argument("--out", required=True, help="cluster report JSON")
    _add_flags(p, "top", *_PAIR_KEYS)
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("pairs", help="pairwise near-duplicate analysis of a review file")
    p.add_argument("--reviews", required=True)
    _add_flags(p, *_PAIR_KEYS)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("stats", help="statistical comparisons")
    stats_sub = p.add_subparsers(dest="stats_command", required=True, parser_class=_Parser)
    q = stats_sub.add_parser("ttest", help="Welch's t-test over two CSV columns")
    q.add_argument("--a", required=True, help="PATH[:COLUMN], column defaults to 'score'")
    q.add_argument("--b", required=True, help="PATH[:COLUMN]")
    q.add_argument("--two-sided", dest="two_sided", action="store_true")
    q.set_defaults(func=cmd_stats_ttest)
    q = stats_sub.add_parser("cdf", help="empirical CDF of a CSV column")
    q.add_argument("--scores", required=True, help="PATH[:COLUMN], column defaults to 'score'")
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_cdf)
    q = stats_sub.add_parser("network", help="shared-reviewer app network")
    q.add_argument("--reviews", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_network)

    p = sub.add_parser("synth", help="generate a synthetic stream with ground truth")
    p.add_argument("--spec", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True, help="reviews JSONL")
    p.add_argument("--truth", required=True, help="ground-truth JSONL")
    p.add_argument("--catalog", help="also write the synthetic app catalog CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="ingest, partition, score, cluster, summarize")
    p.add_argument("--reviews", required=True)
    _add_flags(p, "format")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_flags(_add_config_flags(p), "top", *_PAIR_KEYS)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A run is one batch, and what the imports built lives until exit.
    # Freezing it keeps the collector's passes to the run's own objects,
    # and freezing again at exit (atexit handlers run before teardown's
    # collections) leaves the whole heap to the OS. No output depends on
    # when cycles are collected. A caller that froze first keeps its state.
    froze = gc.get_freeze_count() == 0
    if froze:
        gc.freeze()
    atexit.unregister(gc.freeze)  # registered once however often main runs
    atexit.register(gc.freeze)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigFailure as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except (DataFailure, EmbeddingFileError, InconsistentRunError, MissingEmbeddingError,
            TickGapError, TooSmallError, DegenerateSamplesError) as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    finally:
        if froze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
