"""Split a review stream into boosting and sinking sub-streams.

An edge boosts an app when its star score is at or above the app's
overall catalog rating, and sinks it when below. Edges on apps missing
from the catalog are labelled unpartitioned rather than dropped, so the
three outputs always add back up to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .ingest import AppRecord, ReviewRows


class SubstreamLabel(str, Enum):
    BOOST = "boost"
    SINK = "sink"
    UNPARTITIONED = "unpartitioned"


@dataclass
class PartitionResult:
    boost: ReviewRows
    sink: ReviewRows
    unpartitioned: ReviewRows

    def counts(self) -> dict[str, int]:
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}


def partition_stream(stream: ReviewRows, catalog: dict[str, AppRecord]) -> PartitionResult:
    """Partition an ordered stream into disjoint, order-preserving
    boost/sink/unpartitioned sub-streams whose union is the input; ties
    (score equal to the rating) go to boost."""
    table, row = stream.table, stream.row
    records = list(map(catalog.get, table.app_ids))  # one per app of the table
    listed = np.array([r is not None for r in records], bool)[table.app[row]]
    rating = np.array([r.overall_rating if r is not None else np.nan for r in records],
                      np.float64)[table.app[row]]
    boost = listed & (table.score[row] >= rating)
    return PartitionResult(*(ReviewRows(table, row[mask])
                             for mask in (boost, listed & ~boost, ~listed)))
