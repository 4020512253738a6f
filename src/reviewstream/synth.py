"""Synthetic review streams with controlled lockstep injections.

Background traffic is Poisson per app per tick, with scores split so
that roughly half the edges boost and half sink against a flat catalog
rating. Injections append bursts of same-app, same-tick reviews written
by a small cycling pool of reviewer ids with near-duplicate texts, so
detector recall and pair analysis have exact ground truth.

Ground-truth labels live in a sidecar, never in the review schema
itself. All randomness flows through one numpy PCG64 generator seeded
from SynthSpec.seed, so a fixed seed reproduces byte-identical output
on any platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .detector import DetectorConfig
from .ingest import AppRecord, ReviewEdge, _type_hints, json_fields

RNG_ALGORITHM = "numpy-pcg64"

BOOST_TEXT_TEMPLATES = (
    "good app",
    "very good app",
    "good earning app",
    "best app",
    "nice app",
)
SINK_TEXT_TEMPLATES = (
    "bad",
    "very bad",
    "bad app",
    "not good",
    "worst app",
)

# Background reviews sample a few of these and append the review id, so
# any two background texts stay well below near-duplicate similarity.
_BACKGROUND_WORDS = (
    "quick", "update", "screen", "works", "offers", "points", "payout",
    "daily", "tasks", "redeem", "coins", "survey", "wallet", "install",
    "reward", "bonus", "cash", "level", "timer", "support",
)

SCORE_MODES = ("boost", "sink")
_INT64_MAX = 2**63 - 1
_POISSON_LAM_MAX = 9.223372006484771e18  # the largest mean numpy's Poisson sampler takes
MAX_APP_TICKS = 10**7  # n_apps * ticks: one Poisson draw in Python per app and tick


@dataclass(frozen=True)
class Injection:
    app_id: str
    tick: int
    n_edges: int
    n_reviewers_used: int
    score_mode: str  # "boost" or "sink"


@dataclass(frozen=True)
class SynthSpec:
    n_apps: int
    n_reviewers: int
    ticks: int
    background_rate: float  # expected reviews per app per tick
    injections: tuple[Injection, ...] = ()
    seed: int = 0
    origin: int = 0
    period: int = DetectorConfig.period  # ticks line up with the detector's default
    base_rating: float = 3.5

    def validate(self) -> None:
        for obj in (self, *self.injections):
            for name, kind in _type_hints(type(obj)).items():
                if kind is int and not -_INT64_MAX - 1 <= getattr(obj, name) <= _INT64_MAX:
                    raise ValueError(f"{name} must fit int64, got {getattr(obj, name)}")
        if self.n_apps < 1 or self.n_reviewers < 1 or self.ticks < 1:
            raise ValueError("n_apps, n_reviewers and ticks must be positive")
        if self.n_apps * self.ticks > MAX_APP_TICKS:
            raise ValueError(f"n_apps * ticks must be at most {MAX_APP_TICKS}, got "
                             f"{self.n_apps} * {self.ticks}")
        if not 0 <= self.background_rate <= _POISSON_LAM_MAX:
            raise ValueError(f"background_rate must be in [0, {_POISSON_LAM_MAX!r}], "
                             f"got {self.background_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.origin < 0 or self.origin + self.ticks * self.period > _INT64_MAX:
            raise ValueError(f"origin + ticks * period must lie in [0, 2**63 - 1], got "
                             f"{self.origin} + {self.ticks} * {self.period}")
        if not 1 <= self.base_rating <= 5:
            raise ValueError(f"base_rating must be in [1, 5], got {self.base_rating}")
        for inj in self.injections:
            if not 1 <= inj.tick <= self.ticks:
                raise ValueError(f"injection tick {inj.tick} outside 1..{self.ticks}")
            digits = inj.app_id[1:]  # app i is f"a{i:03d}"
            valid = digits.isascii() and digits.isdigit() and len(digits) < 19
            index = int(digits) if valid else -1
            if not (0 <= index < self.n_apps and inj.app_id == f"a{index:03d}"):
                raise ValueError(f"injection app {inj.app_id!r} not in the app set")
            if inj.n_edges < 0 or inj.n_reviewers_used < 1:
                raise ValueError("injection needs n_edges >= 0 and n_reviewers_used >= 1")
            if inj.score_mode not in SCORE_MODES:
                raise ValueError(f"score_mode must be one of {SCORE_MODES}")

    @classmethod
    def from_dict(cls, obj: object) -> "SynthSpec":
        """Validated spec from a JSON object; absent keys take the field defaults."""
        values = json_fields(cls, obj)
        values["injections"] = tuple(Injection(**json_fields(Injection, i))
                                     for i in values.get("injections", ()))
        spec = cls(**values)
        spec.validate()
        return spec


@dataclass(frozen=True)
class TruthRecord:
    review_id: str
    injected: bool
    injection_index: int | None


@dataclass
class SynthResult:
    spec: SynthSpec
    edges: list[ReviewEdge]
    truth: list[TruthRecord]
    catalog: dict[str, AppRecord]
    metadata: dict = field(default_factory=dict)

    def injected_ids(self, injection_index: int | None = None) -> set[str]:
        return {
            t.review_id
            for t in self.truth
            if t.injected and (injection_index is None or t.injection_index == injection_index)
        }


def app_ids(spec: SynthSpec) -> list[str]:
    return [f"a{i:03d}" for i in range(spec.n_apps)]


def catalog_for(spec: SynthSpec) -> dict[str, AppRecord]:
    """Flat synthetic catalog: every app carries the same rating."""
    return {app_id: AppRecord(app_id, spec.base_rating) for app_id in app_ids(spec)}


def _tick_timestamp(rng: np.random.Generator, tick: int, origin: int, period: int) -> int:
    # tick n covers (origin + (n-1)*period, origin + n*period]
    return origin + (tick - 1) * period + int(rng.integers(1, period + 1))


def _background_edges(spec: SynthSpec, rng: np.random.Generator) -> list[ReviewEdge]:
    edges: list[ReviewEdge] = []
    counter = 0
    vocab = _BACKGROUND_WORDS
    for app_id in app_ids(spec):
        for tick in range(1, spec.ticks + 1):
            for _ in range(int(rng.poisson(spec.background_rate))):
                review_id = f"b{counter:07d}"
                counter += 1
                reviewer = f"u{int(rng.integers(spec.n_reviewers)):06d}"
                if rng.random() < 0.5:
                    score = int(rng.integers(4, 6))
                else:
                    score = int(rng.integers(1, 4))
                n_words = int(rng.integers(3, 6))
                words = [vocab[int(rng.integers(len(vocab)))] for _ in range(n_words)]
                words.append(review_id)
                edges.append(ReviewEdge(
                    review_id=review_id,
                    reviewer_id=reviewer,
                    app_id=app_id,
                    timestamp=_tick_timestamp(rng, tick, spec.origin, spec.period),
                    score=score,
                    text=" ".join(words),
                ))
    return edges


def make_injection_edges(
    injection: Injection,
    rng: np.random.Generator,
    origin: int,
    period: int,
    injection_index: int,
) -> list[ReviewEdge]:
    """The burst edges for one injection, before merging into a stream.

    Reviewer ids cycle over the first ``n_reviewers_used`` entries of a
    shared pool, so several injections with the same pool size reuse the
    same reviewers (coordinated workers hitting multiple apps). Texts
    cycle over a small template set, giving exact duplicates for pair
    analysis ground truth.
    """
    templates = BOOST_TEXT_TEMPLATES if injection.score_mode == "boost" else SINK_TEXT_TEMPLATES
    score = 5 if injection.score_mode == "boost" else 1
    edges = []
    for j in range(injection.n_edges):
        edges.append(ReviewEdge(
            review_id=f"i{injection_index:02d}x{j:05d}",
            reviewer_id=f"f{j % injection.n_reviewers_used:04d}",
            app_id=injection.app_id,
            timestamp=_tick_timestamp(rng, injection.tick, origin, period),
            score=score,
            text=templates[j % len(templates)],
        ))
    return edges


def gen_stream(spec: SynthSpec) -> SynthResult:
    """Background plus all of the spec's injections, with truth sidecar."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    edges = _background_edges(spec, rng)
    truth = [TruthRecord(e.review_id, False, None) for e in edges]
    for index, injection in enumerate(spec.injections):
        burst = make_injection_edges(injection, rng, spec.origin, spec.period, index)
        edges.extend(burst)
        truth.extend(TruthRecord(e.review_id, True, index) for e in burst)
    edges.sort(key=lambda e: (e.timestamp, e.review_id))
    truth.sort(key=lambda t: t.review_id)
    return SynthResult(
        spec=spec,
        edges=edges,
        truth=truth,
        catalog=catalog_for(spec),
        metadata={"rng": RNG_ALGORITHM, "seed": spec.seed},
    )


def write_truth_jsonl(truth: Iterable[TruthRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in truth:
            # vars(), not asdict: asdict deep-copies every field, which
            # costs more than encoding the line, once per review.
            fh.write(json.dumps(vars(record), sort_keys=True))
            fh.write("\n")
