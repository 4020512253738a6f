#!/usr/bin/env python3
"""Anatomy of a burst: per-edge anomaly scores and why the conditional
merge keeps the second burst visible.

Run:  python3 demos/03_burst_scoring.py
"""

import math

from reviewstream import DetectorConfig, ReviewEdge, ReviewTable, SubstreamLabel, run_detector

PERIOD = 86_400


def day_stream(counts: dict[int, int]) -> list[ReviewEdge]:
    """counts: day -> number of five-star reviews on app 'a' that day."""
    edges = []
    n = 0
    for day in sorted(counts):
        for i in range(counts[day]):
            edges.append(ReviewEdge(
                f"r{n}", f"u{n}", "a",
                (day - 1) * PERIOD + 1 + i % PERIOD, 5,
            ))
            n += 1
    return edges


# Three quiet reviews a day, then a 90-review burst on day 8, quiet
# again, and a second identical burst on day 16.
counts = {day: 3 for day in range(1, 20)}
counts[8] = 90
counts[16] = 90
stream = ReviewTable.from_edges(day_stream(counts)).rows()  # the table's rows, in order


def describe(threshold: float, label: str) -> None:
    config = DetectorConfig(origin=0, decay=0.6, filter_threshold=threshold)
    scored, events = run_detector(stream, config, SubstreamLabel.BOOST)
    final = dict(zip(scored.tick.tolist(), scored.score.tolist()))  # last edge of the day wins
    print(f"\n{label} (filter threshold {threshold}):")
    print("  day:   " + " ".join(f"{d:>7d}" for d in sorted(final)))
    print("  score: " + " ".join(f"{final[d]:7.1f}" for d in sorted(final)))
    print("  burst events: " + ", ".join(
        f"day {e.burst_tick} ({e.burst_count} vs {e.prior_count} the day before, "
        f"ratio {e.ratio:.0f})" for e in events
    ))


describe(math.inf, "no filtering")
describe(200.0, "with filtering")

print("""
Without filtering, the day-8 burst inflates the app's historical mean,
so the identical day-16 burst looks less surprising. With the filter,
day 8 is merged as its expected value instead of its raw count, the
baseline stays honest, and the second burst scores at least as high.
""")
