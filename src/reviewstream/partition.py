"""Split a review edge stream into boosting and sinking sub-streams.

An edge boosts an app when its star score is at or above the app's
overall catalog rating, and sinks it when below. Edges on apps missing
from the catalog are labelled unpartitioned rather than dropped, so the
three outputs always add back up to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable

from .ingest import AppRecord, ReviewEdge


class SubstreamLabel(str, Enum):
    BOOST = "boost"
    SINK = "sink"
    UNPARTITIONED = "unpartitioned"


@dataclass
class PartitionResult:
    boost: list[ReviewEdge] = field(default_factory=list)
    sink: list[ReviewEdge] = field(default_factory=list)
    unpartitioned: list[ReviewEdge] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}


def partition_stream(
    edges: Iterable[ReviewEdge], catalog: dict[str, AppRecord]
) -> PartitionResult:
    """Partition an ordered edge stream into disjoint, order-preserving
    boost/sink/unpartitioned sequences whose union is the input; ties
    (score equal to the rating) go to boost."""
    result = PartitionResult()
    for edge in edges:
        record = catalog.get(edge.app_id)
        if record is None:
            result.unpartitioned.append(edge)
        elif edge.score >= record.overall_rating:
            result.boost.append(edge)
        else:
            result.sink.append(edge)
    return result
