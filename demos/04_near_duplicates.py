#!/usr/bin/env python3
"""Near-identical review detection with the lexical embedding and with
precomputed external vectors.

Run:  python3 demos/04_near_duplicates.py
"""

import json
import tempfile
from pathlib import Path

from reviewstream import (
    FileEmbedder,
    LexicalEmbedder,
    PairAnalysis,
    cosine,
    lexical_vector,
)

# The built-in embedding is a normalized term-frequency vector over word
# unigrams and bigrams. Punctuation and case never matter; word overlap does.
probes = [
    ("good app", "good app."),
    ("good app", "Good  App"),
    ("good app", "very good app"),
    ("good app", "bad service"),
    ("good earning app", "very good for earning app"),
]
print("lexical cosine similarity:")
for a, b in probes:
    sim = cosine(lexical_vector(a), lexical_vector(b))
    print(f"  {a!r:28} vs {b!r:28} -> {sim:.3f}")

# Pairwise analysis over a batch of reviews, given as a column of ids and
# one of texts: the same operation the cluster report runs on each
# suspicious cluster's review_ids and texts.
texts = ["good app", "good app", "very good app", "nice app", "bad", None]
review_ids = [f"r{i}" for i in range(len(texts))]
analysis = PairAnalysis(review_ids, texts, LexicalEmbedder(), tau=0.95)
print(f"\nbatch of {len(texts)} reviews "
      f"({analysis.textless_count} without text):")
for pair in analysis.ordered():
    print(f"  duplicate: {pair['a']} ~ {pair['b']} "
          f"(similarity {pair['similarity']})")
print(f"  flagged: {sorted(analysis.flagged_review_ids)}")

# Swap in vectors from any sentence encoder via a JSONL sidecar. With an
# encoder, paraphrases land near 1.0 even when the words differ.
with tempfile.TemporaryDirectory() as tmp:
    sidecar = Path(tmp) / "vectors.jsonl"
    vectors = {
        "r0": [0.9, 0.1, 0.0],
        "r1": [0.9, 0.1, 0.0],   # same sentence, same vector
        "r2": [0.88, 0.12, 0.0],  # paraphrase, nearly parallel
        "r3": [0.0, 0.0, 1.0],    # unrelated
    }
    sidecar.write_text("".join(
        json.dumps({"review_id": rid, "vector": vec}) + "\n"
        for rid, vec in vectors.items()
    ))
    provider = FileEmbedder.load(sidecar)
    analysis = PairAnalysis(review_ids[:4], texts[:4], provider, tau=0.999)
    print("\nexternal vectors at tau=0.999:")
    for pair in analysis.ordered():
        print(f"  {pair['a']} ~ {pair['b']} "
              f"(similarity {pair['similarity']:.4f})")
