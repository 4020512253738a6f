#!/usr/bin/env python3
"""End-to-end walkthrough: synthesize a review stream with one hidden
lockstep campaign, then find it with the library API.

Run:  python3 demos/01_end_to_end.py
"""

from dataclasses import asdict
from itertools import islice

from reviewstream import (
    DetectorConfig,
    Injection,
    LexicalEmbedder,
    PairAnalysis,
    ReviewTable,
    SubstreamLabel,
    SynthSpec,
    collect_clusters,
    gen_stream,
    partition_stream,
    rank_clusters,
    run_detector,
    summarize,
    welch_t,
)

# A month of traffic on 15 apps, plus one burst of 80 five-star reviews
# dropped on app a006 on day 21 by a pool of 6 coordinated reviewers.
spec = SynthSpec(
    n_apps=15,
    n_reviewers=300,
    ticks=30,
    background_rate=2.0,
    seed=42,
    injections=(Injection("a006", 21, 80, 6, "boost"),),
)
result = gen_stream(spec)
print(f"generated {len(result.edges)} reviews "
      f"({len(result.injected_ids())} injected, hidden from the detector)")

# Split by intent. An edge boosts its app when the star score is at or
# above the app's overall rating, otherwise it sinks it. The library reads
# reviews as a columnar table; the generated edges are already in time order.
table = ReviewTable.from_edges(result.edges)
partitioned = partition_stream(table.rows(), result.catalog)
summary = summarize(partitioned)
print(f"stream summary: {asdict(summary)}")
print(f"partition: {partitioned.counts()}")

config = DetectorConfig(origin=0)  # one-day ticks, default decay/filter
boost_scored, boost_events = run_detector(partitioned.boost, config, SubstreamLabel.BOOST)
sink_scored, sink_events = run_detector(partitioned.sink, config, SubstreamLabel.SINK)
print(f"scored {len(boost_scored)} boost edges -> {len(boost_events)} burst events")
print(f"scored {len(sink_scored)} sink edges  -> {len(sink_events)} burst events")

# Rank the suspicious clusters by mean anomaly score.
clusters = collect_clusters(boost_events + sink_events, boost_scored + sink_scored)
top = rank_clusters(clusters, 5)
print("\ntop clusters (app, substream, tick, size, mean score):")
for c in top:
    print(f"  {c.app_id:>5} {c.substream.value:>5} tick={c.tick:>2} "
          f"size={c.size:>3} mean={c.mean_score:9.2f}")

# The injected campaign should dominate. Check its review texts for the
# copy-paste signature of lockstep behavior.
suspect = top[0]
analysis = PairAnalysis(suspect.review_ids, suspect.texts, LexicalEmbedder(), tau=0.95)
print(f"\nmost suspicious cluster: {suspect.app_id} at tick {suspect.tick}")
print(f"  near-identical pairs: {analysis.pair_count}")
print(f"  reviews in at least one pair: "
      f"{len(analysis.flagged_review_ids)}/{suspect.size}")
for pair in islice(analysis.ordered(), 3):
    print(f"  e.g. {pair['a']} ~ {pair['b']} "
          f"(similarity {pair['similarity']:.2f})")

# Do boosting reviews behave more anomalously than sinking ones here?
outcome = welch_t(boost_scored.score, sink_scored.score)
print(f"\nboost vs sink mean score: {outcome.mean_a:.2f} vs {outcome.mean_b:.2f} "
      f"(t={outcome.t:.2f}, one-sided p={outcome.p_one_sided:.2e})")

hits = result.injected_ids() & analysis.flagged_review_ids
print(f"\nground truth: {len(hits)} of the {suspect.size} cluster members "
      "flagged by pair analysis were actually injected")
