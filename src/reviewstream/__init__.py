"""Streaming lockstep-fraud analysis for app review edge streams.

Reviews are modelled as a time-ordered edge stream over a dynamic
bipartite reviewer-app graph. The stream is split into rating-boosting
and rating-sinking sub-streams, each scored by a constant-memory
streaming detector that flags microcluster bursts; suspicious clusters
are ranked and mined for near-identical review pairs.
"""

__version__ = "0.1.0"

from .clusters import (
    EmbeddingFileError,
    FileEmbedder,
    InconsistentRunError,
    LexicalEmbedder,
    MissingEmbeddingError,
    PairAnalysis,
    SuspiciousCluster,
    build_cluster_report,
    collect_clusters,
    cosine,
    lexical_vector,
    rank_clusters,
)
from .detector import (
    Detector,
    DetectorConfig,
    MicroclusterEvent,
    ScoredStream,
    TickGapError,
    TimeRegressionError,
    run_detector,
)
from .ingest import (
    AppRecord,
    BeforeOriginError,
    LineError,
    ReviewEdge,
    ReviewRows,
    ReviewTable,
    parse_apps,
    parse_reviews,
)
from .partition import PartitionResult, SubstreamLabel, partition_stream
from .sketch import CountMinSketch, derive_row_seeds
from .stats import (
    DegenerateSamplesError,
    EcdfPoints,
    EmptySampleError,
    SharedReviewerGraph,
    StreamSummary,
    TooSmallError,
    WelchResult,
    ecdf,
    shared_reviewer_graph,
    summarize,
    welch_t,
)
from .synth import (
    Injection,
    SynthResult,
    SynthSpec,
    TruthRecord,
    gen_stream,
)

__all__ = [
    "__version__",
    "AppRecord",
    "BeforeOriginError",
    "CountMinSketch",
    "Detector",
    "DetectorConfig",
    "DegenerateSamplesError",
    "EcdfPoints",
    "EmptySampleError",
    "EmbeddingFileError",
    "FileEmbedder",
    "InconsistentRunError",
    "Injection",
    "LexicalEmbedder",
    "LineError",
    "MicroclusterEvent",
    "MissingEmbeddingError",
    "PairAnalysis",
    "PartitionResult",
    "ReviewEdge",
    "ReviewRows",
    "ReviewTable",
    "ScoredStream",
    "SharedReviewerGraph",
    "StreamSummary",
    "SubstreamLabel",
    "SuspiciousCluster",
    "SynthResult",
    "SynthSpec",
    "TickGapError",
    "TimeRegressionError",
    "TooSmallError",
    "TruthRecord",
    "WelchResult",
    "build_cluster_report",
    "collect_clusters",
    "cosine",
    "derive_row_seeds",
    "ecdf",
    "gen_stream",
    "lexical_vector",
    "parse_apps",
    "parse_reviews",
    "partition_stream",
    "rank_clusters",
    "run_detector",
    "shared_reviewer_graph",
    "summarize",
    "welch_t",
]
