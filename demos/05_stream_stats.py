#!/usr/bin/env python3
"""Stream statistics: score CDFs, Welch's t-test, and the shared-reviewer
app network that exposes coordinated reviewer pools.

Run:  python3 demos/05_stream_stats.py
"""

import numpy as np

from reviewstream import (
    DetectorConfig,
    Injection,
    ReviewTable,
    SubstreamLabel,
    SynthSpec,
    ecdf,
    gen_stream,
    partition_stream,
    run_detector,
    shared_reviewer_graph,
    welch_t,
)

# One reviewer pool of 4 workers boosts three different apps in the same
# week; everything else is ordinary traffic.
spec = SynthSpec(
    n_apps=12,
    n_reviewers=250,
    ticks=25,
    background_rate=2.0,
    seed=9,
    injections=(
        Injection("a002", 10, 60, 4, "boost"),
        Injection("a005", 11, 60, 4, "boost"),
        Injection("a008", 12, 60, 4, "boost"),
    ),
)
result = gen_stream(spec)
table = ReviewTable.from_edges(result.edges)
partitioned = partition_stream(table.rows(), result.catalog)
config = DetectorConfig(origin=0)
boost_scored, _ = run_detector(partitioned.boost, config, SubstreamLabel.BOOST)
sink_scored, _ = run_detector(partitioned.sink, config, SubstreamLabel.SINK)

boost_scores = boost_scored.score.tolist()
sink_scores = sink_scored.score.tolist()

# Empirical CDFs: the boosting sub-stream has the heavier tail.
print("score CDF (fraction of edges at or below each score):")
print(f"  {'score':>8} {'boost':>7} {'sink':>7}")
boost_cdf, sink_cdf = ecdf(boost_scores), ecdf(sink_scores)
for x in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
    # F(x): the fraction at the last support value <= x, or 0 below the first
    boost_at, sink_at = (np.append(0.0, cdf.fractions)[np.searchsorted(cdf.values, x, "right")]
                         for cdf in (boost_cdf, sink_cdf))
    print(f"  {x:8.1f} {boost_at:7.3f} {sink_at:7.3f}")

outcome = welch_t(boost_scores, sink_scores)
print(f"\nWelch's t-test, boost mean {outcome.mean_a:.2f} vs sink mean "
      f"{outcome.mean_b:.2f}: t={outcome.t:.2f}, one-sided p={outcome.p_one_sided:.2e}")

# The same 4 reviewer ids appear on all three boosted apps, so those
# apps become a visible clique in the shared-reviewer network.
print("\nstrongest shared-reviewer app pairs:")
network = shared_reviewer_graph(table)  # columns: codes into network.apps, weights
rows = zip(network.app_a.tolist(), network.app_b.tolist(), network.weight.tolist())
graph = sorted(((network.apps[a], network.apps[b], w) for a, b, w in rows),
               key=lambda row: -row[2])
for app_a, app_b, weight in graph[:6]:
    print(f"  {app_a} -- {app_b}: {weight} shared reviewers")

boosted = {"a002", "a005", "a008"}
clique = [weight for app_a, app_b, weight in graph if {app_a, app_b} <= boosted]
print(f"\npairs inside the boosted clique: {len(clique)} of {len(graph)} edges, "
      f"each sharing >= {min(clique)} reviewers")
