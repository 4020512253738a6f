"""Seeded input generator for the benchmark workloads.

Every workload is built from one numpy PCG64 generator seeded with the
workload seed, so the same (workload, seed) always gives byte-identical
files. The generator is independent of ``reviewstream.synth``: a change
to the program's own synthetic-data module cannot shift a workload.

Each workload directory holds:

- ``reviews.jsonl``: the review stream, in timestamp order, including a
  few deliberately malformed lines that the parser must reject;
- ``catalog.csv``: one row per app, ratings written as plain decimals;
- ``truth.json``: the injected campaigns, the counts the program's
  ``summary.json`` must report, the derived counts the trace reports,
  and the sha256 of both input files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bumped whenever the generator's output changes, so cached inputs from
# an older generator are never reused.
GENERATOR_VERSION = 3

_VOCAB = tuple(
    """able about account ads after again amazing annoying answer app bad
    balance battery best better bonus bug button buy cash cashout change
    cheap coins crash daily data deal design easy email error every fast
    feature fine fix free friend fun game gift good great hard help home
    install invite issue keeps level like login long love menu money month
    need never new nice offer open option page pay payout phone points poor
    price problem quick rate real redeem refund reward right scam screen
    service settings should simple slow spend star start still support
    survey task team thanks time today track trust update use useful user
    value video wait wallet want waste week well withdraw work works worst
    wow year""".split()
)

_EXACT_TEMPLATES = {
    "boost": ("good app", "very good app", "good earning app", "best app", "nice app"),
    "sink": ("bad", "very bad", "bad app", "not good", "worst app"),
}

_RATINGS = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
# Background star scores 1..5; every rating lies strictly between 1 and
# 5, so a score of 5 always boosts and a score of 1 always sinks.
_SCORE_P = (0.14, 0.08, 0.13, 0.25, 0.40)


@dataclass(frozen=True)
class Campaign:
    """Lockstep burst on one app in one tick of one sub-stream."""

    kind: str  # "exact": cycles short templates; "near": one long template, words swapped
    substream: str  # "boost" or "sink"
    n_edges: int
    n_reviewers: int
    template_words: int = 0  # "near" only


@dataclass(frozen=True)
class WorkloadSpec:
    n_apps: int
    n_reviewers: int
    ticks: int
    period: int
    edges: int  # background edges
    app_zipf: float  # 0 means uniform
    reviewer_zipf: float
    campaigns: tuple[Campaign, ...]
    campaign_ticks: tuple[int, int]  # inclusive range campaign ticks are drawn from


WORKLOADS: dict[str, WorkloadSpec] = {
    # Uniform keys, daily ticks; 2000 apps over 1024 sketch columns.
    "bulk": WorkloadSpec(
        n_apps=2000, n_reviewers=12_500, ticks=60, period=86_400, edges=30_000,
        app_zipf=0.0, reviewer_zipf=0.0,
        campaigns=(Campaign("exact", "boost", 250, 6),),
        campaign_ticks=(30, 50),
    ),
    # Small background, five lockstep campaigns dominate pair analysis.
    "campaign": WorkloadSpec(
        n_apps=200, n_reviewers=4_000, ticks=30, period=86_400, edges=10_000,
        app_zipf=0.0, reviewer_zipf=0.0,
        campaigns=(
            Campaign("exact", "boost", 450, 12),
            Campaign("exact", "sink", 400, 10),
            Campaign("near", "boost", 200, 20, 45),
            Campaign("near", "sink", 160, 15, 35),
            Campaign("near", "boost", 120, 12, 20),
        ),
        campaign_ticks=(10, 28),
    ),
    # Zipf keys, hourly ticks; 20k apps over 1024 sketch columns.
    "skewed": WorkloadSpec(
        n_apps=20_000, n_reviewers=9_800, ticks=720, period=3_600, edges=28_000,
        app_zipf=1.1, reviewer_zipf=0.7,
        campaigns=(Campaign("near", "boost", 120, 15, 40),),
        campaign_ticks=(300, 600),
    ),
}

DEFAULT_SEED = 1


def _zipf_p(n: int, s: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


def _draw(rng: np.random.Generator, n: int, size: int, s: float) -> np.ndarray:
    """``size`` keys out of ``n``, uniform or Zipf with exponent ``s``.

    Zipf keys get their expected counts (largest remainders round up) in
    a random order, so the heaviest keys, which dominate the network pair
    expansion, weigh the same under every seed.
    """
    if s == 0.0:
        return rng.integers(0, n, size=size)
    expected = _zipf_p(n, s) * size
    counts = np.floor(expected).astype(np.int64)
    short = size - int(counts.sum())
    counts[np.argsort(counts - expected, kind="stable")[:short]] += 1
    keys = np.repeat(np.arange(n), counts)
    rng.shuffle(keys)
    return keys


def _near_texts(rng: np.random.Generator, n: int, words: int) -> list[str]:
    """One template of distinct words; ~60% of copies swap 1-2 words."""
    template = [_VOCAB[i] for i in rng.choice(len(_VOCAB), size=words, replace=False)]
    texts = []
    for _ in range(n):
        copy = list(template)
        if rng.random() < 0.6:
            for pos in rng.choice(words, size=int(rng.integers(1, 3)), replace=False):
                copy[pos] = _VOCAB[int(rng.integers(len(_VOCAB)))]
        texts.append(" ".join(copy))
    return texts


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def generate(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Write one workload's inputs into ``out_dir`` and return its truth.

    ``scale`` shrinks the edge, reviewer and campaign counts while keeping
    apps, ticks and key skew; the correctness gate uses a small scale.
    """
    spec = WORKLOADS[name]
    rng = np.random.Generator(np.random.PCG64(seed))
    out_dir.mkdir(parents=True, exist_ok=True)

    ratings = np.asarray(_RATINGS)[rng.integers(0, len(_RATINGS), size=spec.n_apps)]
    n = round(spec.edges * scale)
    n_reviewers = max(1, round(spec.n_reviewers * scale))
    app = _draw(rng, spec.n_apps, n, spec.app_zipf)
    reviewer = _draw(rng, n_reviewers, n, spec.reviewer_zipf)
    tick = rng.integers(1, spec.ticks + 1, size=n)
    score = rng.choice(5, size=n, p=_SCORE_P) + 1
    n_words = rng.integers(4, 11, size=n)
    word_ids = rng.integers(0, len(_VOCAB), size=int(n_words.sum()))
    has_text = rng.random(n) >= 0.03

    app_names = [f"a{i:05d}" for i in range(spec.n_apps)]
    rows: list[tuple] = []  # (tick, app index, reviewer id, score, text, review id)
    offset = 0
    for i in range(n):
        k = int(n_words[i])
        review_id = f"b{i:07d}"
        text = None
        if has_text[i]:
            text = " ".join(_VOCAB[w] for w in word_ids[offset:offset + k]) + " " + review_id
        offset += k
        rows.append((int(tick[i]), int(app[i]), f"u{int(reviewer[i]):06d}",
                     int(score[i]), text, review_id))

    # Campaign apps come from the upper half of the popularity ranking so
    # each burst stands on ordinary background traffic.
    lo, hi = spec.campaign_ticks
    apps_used = rng.choice(np.arange(spec.n_apps // 20, spec.n_apps // 2),
                           size=len(spec.campaigns), replace=False)
    campaigns = []
    for c, (camp, app_idx) in enumerate(zip(spec.campaigns, apps_used)):
        c_tick = int(rng.integers(lo, hi + 1))
        c_edges = round(camp.n_edges * scale)
        if camp.kind == "exact":
            templates = _EXACT_TEMPLATES[camp.substream]
            texts = [templates[j % len(templates)] for j in range(c_edges)]
        else:
            texts = _near_texts(rng, c_edges, camp.template_words)
        c_score = 5 if camp.substream == "boost" else 1
        for j, text in enumerate(texts):
            rows.append((c_tick, int(app_idx), f"k{c}x{j % camp.n_reviewers:03d}",
                         c_score, text, f"c{c}x{j:05d}"))
        campaigns.append({"app_id": app_names[app_idx], "substream": camp.substream,
                          "tick": c_tick, "n_edges": c_edges, "kind": camp.kind})

    # A handful of edges on apps absent from the catalog stay
    # unpartitioned; they count in the summary but are never scored.
    n_orphan = max(1, n // 5000)
    for j in range(n_orphan):
        rows.append((int(rng.integers(1, spec.ticks + 1)), -1, f"u{j:06d}", 3,
                     "orphan app review", f"o{j:05d}"))

    offsets = rng.integers(1, spec.period + 1, size=len(rows))
    timestamps = [(r[0] - 1) * spec.period + int(o) for r, o in zip(rows, offsets)]
    order = sorted(range(len(rows)), key=lambda i: (timestamps[i], rows[i][5]))

    lines = []
    boost = sink = 0
    app_reviewers: set[tuple[str, str]] = set()
    scored_apps: set[str] = set()
    for i in order:
        _, app_idx, reviewer_id, s, text, review_id = rows[i]
        app_id = app_names[app_idx] if app_idx >= 0 else f"z{review_id}"
        if app_idx >= 0:
            scored_apps.add(app_id)
            if s >= ratings[app_idx]:
                boost += 1
            else:
                sink += 1
        app_reviewers.add((reviewer_id, app_id))
        obj = {"review_id": review_id, "reviewer_id": reviewer_id, "app_id": app_id,
               "timestamp": timestamps[i], "score": s}
        if text is not None:
            obj["text"] = text
        lines.append(json.dumps(obj, sort_keys=True))

    # Malformed lines the parser must reject without failing the run
    # (well under the default 1% error threshold).
    n_bad = max(2, len(lines) // 4000)
    bad_at = np.sort(rng.choice(len(lines), size=n_bad, replace=False))
    for k, pos in enumerate(bad_at[::-1]):
        bad = ('{"review_id": "bad%d", "score": 9, "app_id": "a00000", '
               '"reviewer_id": "u000000", "timestamp": 5}' % k if k % 2
               else '{"review_id": "bad%d", "score": ' % k)
        lines.insert(int(pos), bad)

    reviews_path = out_dir / "reviews.jsonl"
    reviews_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    catalog_path = out_dir / "catalog.csv"
    catalog_path.write_text(
        "app_id,overall_rating,install_count,name\n"
        + "".join(f"{a},{float(r)!r},{1000 + 7 * i},{a} app\n"
                  for i, (a, r) in enumerate(zip(app_names, ratings))),
        encoding="utf-8",
    )

    reviewer_degree: dict[str, int] = {}
    for reviewer_id, _ in app_reviewers:
        reviewer_degree[reviewer_id] = reviewer_degree.get(reviewer_id, 0) + 1
    truth = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "generator_version": GENERATOR_VERSION,
        "origin": 0,
        "period": spec.period,
        "campaigns": campaigns,
        "rejected_lines": n_bad,
        "counts": {
            "reviews": boost + sink + n_orphan,
            "reviewers": len(reviewer_degree),
            "apps": len({a for _, a in app_reviewers}),
            "boost": boost,
            "sink": sink,
            "unpartitioned": n_orphan,
        },
        "scored_apps": sorted(scored_apps),
        "network_increments": sum(d * (d - 1) // 2 for d in reviewer_degree.values()),
        "sha256": {"reviews.jsonl": sha256_file(reviews_path),
                   "catalog.csv": sha256_file(catalog_path)},
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return truth


def load_or_generate(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Reuse inputs already generated for (workload, seed, scale) if intact."""
    truth_path = out_dir / "truth.json"
    if truth_path.is_file():
        truth = json.loads(truth_path.read_text(encoding="utf-8"))
        if (truth.get("generator_version") == GENERATOR_VERSION
                and truth.get("scale") == scale
                and all((out_dir / f).is_file() and sha256_file(out_dir / f) == h
                        for f, h in truth["sha256"].items())):
            return truth
    return generate(name, seed, out_dir, scale)
