import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewstream import clusters as clusters_module
from reviewstream.clusters import (
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
from reviewstream.detector import MicroclusterEvent, ScoredStream
from reviewstream.ingest import ReviewEdge, ReviewTable
from reviewstream.partition import SubstreamLabel

from _reference import all_pairs_similarity

BOOST = SubstreamLabel.BOOST
SINK = SubstreamLabel.SINK
LABELS = list(SubstreamLabel)  # a sub-stream column holds indices into this


def review(review_id, app="a1", tick=5, text="ok"):
    return ReviewEdge(review_id, f"u-{review_id}", app, tick * 10, 5, text)


def stream(*rows):
    """A ScoredStream of ``(edge, substream, tick, score)`` rows, over a
    table that holds the edges in reverse, so no row is its position."""
    edges, substreams, ticks, scores = zip(*rows)
    return ScoredStream(ReviewTable.from_edges(edges[::-1]), np.arange(len(edges))[::-1],
                        np.array(ticks, np.uint64), np.array(scores, np.float64),
                        np.array([LABELS.index(s) for s in substreams], np.int8))


def record(review_id, app="a1", tick=5, score=1.0, text="ok", substream=BOOST):
    return review(review_id, app, tick, text), substream, tick, score


def event(app="a1", prior_tick=4, substream=BOOST):
    return MicroclusterEvent(app, substream, prior_tick, 2, 12, 6.0)


def cluster(texts, app="a1", tick=5, mean=1.0, scores=None):
    review_ids = tuple(f"m{i}" for i in range(len(texts)))
    member_scores = [scores[i] if scores else mean for i in range(len(texts))]
    actual_mean = sum(member_scores) / len(review_ids)
    return SuspiciousCluster(app, BOOST, tick, review_ids, tuple(texts), actual_mean)


class TestCollect:
    def test_one_event_yields_one_cluster(self):
        records = [record(f"r{i}", tick=5, score=float(i)) for i in range(12)]
        clusters = collect_clusters([event(prior_tick=4)], stream(*records))
        assert len(clusters) == 1
        assert clusters[0].size == 12
        assert clusters[0].tick == 5
        assert clusters[0].mean_score == sum(range(12)) / 12

    def test_zero_events_zero_clusters(self):
        assert collect_clusters([], stream(record("r0"))) == []

    def test_two_apps_same_tick_are_disjoint(self):
        records = [record("r1", app="a1"), record("r2", app="a2")]
        clusters = collect_clusters(
            [event(app="a1"), event(app="a2")], stream(*records)
        )
        assert [c.app_id for c in clusters] == ["a1", "a2"]
        assert all(c.size == 1 for c in clusters)

    def test_substreams_are_separate(self):
        records = [record("r1", substream=BOOST), record("r2", substream=SINK)]
        clusters = collect_clusters([event(substream=SINK)], stream(*records))
        assert clusters[0].review_ids == ("r2",)

    def test_mean_sums_left_to_right(self):
        # 2**53 + 1 rounds back to 2**53, so the nine ones vanish one by
        # one from the left; numpy's pairwise sum would keep them.
        scores = [2.0**53] + [1.0] * 9
        records = [record(f"r{i}", score=s) for i, s in enumerate(scores)]
        (c,) = collect_clusters([event()], stream(*records))
        assert float(np.sum(scores)) != sum(scores)
        assert c.mean_score.hex() == (sum(scores) / 10).hex()

    def test_event_without_edges_is_inconsistent(self):
        with pytest.raises(InconsistentRunError):
            collect_clusters([event(app="ghost")], stream(record("r0")))

    def test_event_listed_twice_is_inconsistent(self):
        records = [record("r1", app="a1"), record("r2", app="a2")]
        events = [event(app="a2"), event(app="a1"), event(app="a1"), event(app="a2")]
        with pytest.raises(InconsistentRunError,
                           match=r"^event for app 'a1' at tick 5 \(boost\) is listed twice$"):
            collect_clusters(events, stream(*records))


APPS = ("a0", "a1", "a2")
TICKS = st.one_of(st.integers(1, 4), st.integers(1, 2**64 - 1), st.just(2**64 - 1))


@st.composite
def scored_rows(draw):
    """``(edge, substream, tick, score)`` rows with unique review ids:
    interleaved apps, both sub-streams, a few repeated ticks drawn from
    [1, 2**64), and scores whose sum depends on the order of its terms
    (2**53 + 1 rounds to 2**53). Drawing from few keys at times makes
    clusters of more than 8 members, where numpy would sum pairwise."""
    apps = draw(st.lists(st.sampled_from(APPS), min_size=1, unique=True))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, unique=True))
    ticks = draw(st.lists(TICKS, min_size=1, max_size=4, unique=True))
    scores = st.one_of(st.sampled_from([1.0, 2.0**53]), st.floats(0, 1e17))
    cells = draw(st.lists(st.tuples(st.sampled_from(apps), st.sampled_from(labels),
                                    st.sampled_from(ticks), scores),
                          min_size=1, max_size=40))
    return [(review(f"r{i}", app), substream, tick, score)
            for i, (app, substream, tick, score) in enumerate(cells)]


@settings(max_examples=200, deadline=None)
@given(rows=scored_rows(), data=st.data())
def test_collect_matches_a_brute_force_recount(rows, data):
    keys = [(edge.app_id, substream, tick) for edge, substream, tick, _ in rows]
    picked = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=8, unique=True))
    events = [MicroclusterEvent(app, substream, tick - 1, 1, 3, 3.0)
              for app, substream, tick in picked]
    scored = stream(*rows)
    clusters = collect_clusters(events, scored)
    assert len(clusters) == len(events)
    for key, c in zip(picked, clusters):
        assert (c.app_id, c.substream, c.tick) == key
        matching = [row for row, row_key in zip(rows, keys) if row_key == key]
        assert list(c.review_ids) == [edge.review_id for edge, *_ in matching]
        assert list(c.texts) == [edge.text for edge, *_ in matching]
        mean = sum(score for *_, score in matching) / len(matching)  # left to right
        assert c.mean_score.hex() == mean.hex()

    again = data.draw(st.sampled_from(events))
    at = data.draw(st.integers(0, len(events)))
    with pytest.raises(InconsistentRunError, match="is listed twice"):
        collect_clusters([*events[:at], again, *events[at:]], scored)

    ghost = data.draw(st.tuples(st.sampled_from([*APPS, "ghost"]), st.sampled_from(LABELS),
                                TICKS).filter(lambda k: k not in keys))
    at = data.draw(st.integers(0, len(events)))
    events.insert(at, MicroclusterEvent(ghost[0], ghost[1], ghost[2] - 1, 1, 3, 3.0))
    with pytest.raises(InconsistentRunError):
        collect_clusters(events, scored)


class TestRank:
    def test_orders_by_mean_descending(self):
        clusters = [cluster(["x"], mean=m, app=f"a{i}") for i, m in enumerate([9.0, 3.0, 7.5])]
        top = rank_clusters(clusters, 2)
        assert [c.mean_score for c in top] == [9.0, 7.5]

    def test_k_larger_than_count_returns_all(self):
        clusters = [cluster(["x"], app="a1"), cluster(["y"], app="a2")]
        assert len(rank_clusters(clusters, 50)) == 2

    def test_tie_breaks_by_size_then_app(self):
        big = cluster(["t"] * 10, app="a2", mean=5.0)
        small = cluster(["t"] * 4, app="a1", mean=5.0)
        assert rank_clusters([small, big], 2) == [big, small]
        same_size = cluster(["t"] * 4, app="a0", mean=5.0)
        assert rank_clusters([small, same_size], 2) == [same_size, small]

    def test_output_is_subsequence_of_total_order(self):
        clusters = [cluster(["x"], app=f"a{i}", mean=float(i % 3)) for i in range(9)]
        full = rank_clusters(clusters, len(clusters))
        for k in range(1, len(clusters) + 1):
            assert rank_clusters(clusters, k) == full[:k]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_clusters([], 0)


class TestLexicalVectors:
    def test_case_insensitive(self):
        assert lexical_vector("Good App") == lexical_vector("good app")

    def test_punctuation_stripped(self):
        assert cosine(lexical_vector("good app"), lexical_vector("good app.")) == 1.0

    def test_whitespace_collapsed(self):
        assert lexical_vector("good   app") == lexical_vector("good app")

    def test_empty_text_gives_zero_similarity(self):
        assert lexical_vector("") == {}
        assert cosine(lexical_vector(""), lexical_vector("good app")) == 0.0
        assert cosine(lexical_vector("..."), lexical_vector("...")) == 0.0

    def test_self_similarity_is_exactly_one(self):
        assert cosine(lexical_vector("very good app"), lexical_vector("very good app")) == 1.0

    def test_different_templates_stay_below_duplicate_threshold(self):
        sim = cosine(lexical_vector("good app"), lexical_vector("very good app"))
        assert 0.0 < sim < 0.95

    def test_unit_norm(self):
        vec = lexical_vector("good good app")
        assert sum(w * w for w in vec.values()) == pytest.approx(1.0)


text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs", "Po")),
    max_size=40,
)


@settings(max_examples=150)
@given(a=text_strategy, b=text_strategy)
def test_similarity_is_symmetric(a, b):
    va, vb = lexical_vector(a), lexical_vector(b)
    assert cosine(va, vb) == cosine(vb, va)
    assert -1.0 <= cosine(va, vb) <= 1.0


@settings(max_examples=150)
@given(a=text_strategy)
def test_self_similarity_property(a):
    vec = lexical_vector(a)
    expected = 1.0 if vec else 0.0
    assert cosine(vec, lexical_vector(a)) == expected


class TestNearIdenticalPairs:
    def test_exact_duplicates_flagged(self):
        c = cluster(["good app", "good app", "bad service"])
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau=1.0)
        assert analysis.pair_count == 1
        assert next(analysis.ordered())["similarity"] == 1.0
        assert analysis.flagged_review_ids == {"m0", "m1"}
        assert analysis.evaluated_count == 3

    def test_single_member_has_no_pairs(self):
        c = cluster(["solo"])
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau=0.95)
        assert list(analysis.ordered()) == []

    def test_textless_members_excluded_but_counted(self):
        c = cluster(["good app", None, "good app"])
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau=1.0)
        assert analysis.textless_count == 1
        assert analysis.evaluated_count == 2
        assert analysis.pair_count == 1
        assert c.size == 3

    def test_pair_count_bounded_by_combinations(self):
        c = cluster(["a b"] * 6)
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau=1.0)
        assert analysis.pair_count == 15  # C(6, 2)
        assert analysis.flagged_review_ids <= set(c.review_ids)

    def test_pairs_sorted_by_similarity_then_ids(self):
        c = cluster(["good app", "good app", "very good app"])
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau=0.5)
        pairs = list(analysis.ordered())
        sims = [p["similarity"] for p in pairs]
        assert sims == sorted(sims, reverse=True)
        assert pairs[0] == {"a": "m0", "b": "m1", "similarity": 1.0}

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            PairAnalysis(("m0",), ("x",), LexicalEmbedder(), tau=0.0)


class TestFileEmbedder:
    def write_sidecar(self, tmp_path, rows):
        path = tmp_path / "vectors.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        return path

    def test_lookup_and_pairing(self, tmp_path):
        path = self.write_sidecar(tmp_path, [
            {"review_id": "m0", "vector": [1.0, 0.0]},
            {"review_id": "m1", "vector": [2.0, 0.0]},  # same direction
            {"review_id": "m2", "vector": [0.0, 1.0]},
        ])
        provider = FileEmbedder.load(path)
        c = cluster(["w1", "w2", "w3"])
        analysis = PairAnalysis(c.review_ids, c.texts, provider, tau=1.0)
        assert [(p["a"], p["b"]) for p in analysis.ordered()] == [("m0", "m1")]

    def test_missing_review_id(self, tmp_path):
        path = self.write_sidecar(tmp_path, [{"review_id": "m0", "vector": [1.0]}])
        provider = FileEmbedder.load(path)
        with pytest.raises(MissingEmbeddingError) as err:
            PairAnalysis(("m0", "m1"), ("a", "b"), provider, tau=1.0)
        assert "m1" in str(err.value)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = self.write_sidecar(tmp_path, [
            {"review_id": "m0", "vector": [1.0, 0.0]},
            {"review_id": "m1", "vector": [1.0]},
        ])
        with pytest.raises(ValueError):
            FileEmbedder.load(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write_sidecar(tmp_path, [
            {"review_id": "m0", "vector": [1.0, 0.0]},
            {"review_id": "m1", "vector": [1.0, 0.0], "extra": 1},
        ])
        with pytest.raises(EmbeddingFileError, match=f"^{path}:2: unknown key 'extra'$"):
            FileEmbedder.load(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('\n{"review_id": "m0", "vector": [3.0, 4.0]}\n \n', encoding="utf-8")
        (vec,) = FileEmbedder.load(path).vectors(["m0"], [None])
        assert vec.tolist() == [0.6, 0.8]

    def test_review_id_given_twice_rejected(self, tmp_path):
        path = self.write_sidecar(tmp_path, [
            {"review_id": "m0", "vector": [1.0, 0.0]},
            {"review_id": "m1", "vector": [1.0, 0.0]},
            {"review_id": "m0", "vector": [0.0, 1.0]},
        ])
        with pytest.raises(EmbeddingFileError, match=f"^{path}:3: review_id 'm0' given twice$"):
            FileEmbedder.load(path)

    def test_self_similarity_is_one(self, tmp_path):
        path = self.write_sidecar(tmp_path, [{"review_id": "m0", "vector": [0.3, 0.4]}])
        provider = FileEmbedder.load(path)
        (vec,) = provider.vectors(["m0"], [None])
        assert cosine(vec, vec) == 1.0


# ---------------------------------------------------------------------------
# Pair mining against the all-pairs oracle.

# Equal lexical vectors whose dicts iterate in different orders, and a
# third text that scores 1 ulp apart against each (see test below).
ORDER_TWINS = ("d f a d a", "d a d f a")
ORDER_PROBE = "a c b d f"


def members_with_ids(values, id_order):
    """Cluster of reviews carrying ``values`` as text, with review ids
    ranked by ``id_order`` so id order differs from member order."""
    review_ids = tuple(f"r{rank:02d}" for rank in id_order)
    return SuspiciousCluster("a1", BOOST, 5, review_ids, tuple(values), 1.0)


def assert_matches_oracle(c, provider, tau):
    pairs, flagged, evaluated, textless = all_pairs_similarity(c.review_ids, c.texts, provider,
                                                               tau)
    analysis = PairAnalysis(c.review_ids, c.texts, provider, tau)
    got = [(p["a"], p["b"], p["similarity"]) for p in analysis.ordered()]
    assert got == pairs  # floats compared with ==: bit-identical similarities
    assert analysis.pair_count == len(pairs)
    assert analysis.flagged_review_ids == flagged
    assert (analysis.evaluated_count, analysis.textless_count) == (evaluated, textless)
    (entry,) = build_cluster_report([c], provider, tau)
    assert entry["pair_count"] == len(pairs)
    assert entry["flagged_count"] == len(flagged)
    assert entry["textless_count"] == textless
    assert [(e["a"], e["b"], e["similarity"]) for e in entry["top_pairs"]] == pairs[:10]


def observed_similarities(c, provider):
    with_text = [(r, t) for r, t in zip(c.review_ids, c.texts) if t is not None]
    vectors = provider.vectors(*zip(*with_text)) if with_text else []
    sims = {cosine(vectors[i], vectors[j])
            for i in range(len(vectors)) for j in range(i + 1, len(vectors))}
    return sorted(x for x in sims if 0.0 < x <= 1.0)


TAU_GRID = st.sampled_from([1.0, 0.95, 0.5, "observed"])
lexical_member = st.one_of(
    st.lists(st.sampled_from(["good", "app", "very", "a", "b", "c"]), max_size=5).map(" ".join),
    st.sampled_from([*ORDER_TWINS, ORDER_PROBE, "", "...", "!?", None]),
)


def draw_cluster(data, values):
    id_order = data.draw(st.permutations(range(len(values))))
    return members_with_ids(values, id_order)


def draw_tau(data, tau, c, provider):
    if tau != "observed":
        return tau
    observed = observed_similarities(c, provider)
    return data.draw(st.sampled_from(observed)) if observed else 1.0


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(lexical_member, max_size=14), tau=TAU_GRID, data=st.data())
def test_lexical_pairs_match_all_pairs_oracle(texts, tau, data):
    c = draw_cluster(data, texts)
    provider = LexicalEmbedder()
    assert_matches_oracle(c, provider, draw_tau(data, tau, c, provider))


# Word i is drawn about 1 / (i + 1) as often as the first, so a few terms
# are in most texts and the rarest-first order puts them at the end.
ZIPF_WORDS = [word for i, word in enumerate("app good pay very fast cash earn ok bad free".split())
              for _ in range(30 // (i + 1))]
zipf_member = st.one_of(
    st.lists(st.sampled_from(ZIPF_WORDS), min_size=1, max_size=9).map(" ".join),
    st.sampled_from(["", None]),
)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(zipf_member, max_size=16), tau=st.sampled_from([1.0, 0.95, 0.8, 0.5, 0.3,
                                                                       "observed"]),
       block=st.integers(1, 7), data=st.data())
def test_zipf_skewed_lexical_pairs_match_all_pairs_oracle(texts, tau, block, data):
    c = draw_cluster(data, texts)
    provider = LexicalEmbedder()
    tau = draw_tau(data, tau, c, provider)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clusters_module, "_PREFIX_BLOCK_ENTRIES", block)
        assert_matches_oracle(c, provider, tau)


BASE_VECTORS = (
    np.array([0.6, 0.8, 0.0]),
    np.array([1 / 3, 2 / 3, 2 / 3]),
    np.array([0.0, 0.0, 1.0]),
)


@st.composite
def file_vector(draw):
    """Unit vectors, their -0.0 and 1-ulp variants, zero vectors and
    random directions."""
    kind = draw(st.sampled_from(["base", "neg-zero", "ulp", "zero", "random"]))
    v = BASE_VECTORS[draw(st.integers(0, len(BASE_VECTORS) - 1))].copy()
    if kind == "neg-zero":
        v[v == 0.0] = -0.0
    elif kind == "ulp":
        k = draw(st.integers(0, 2))
        v[k] = np.nextafter(v[k], draw(st.sampled_from([-np.inf, np.inf])))
    elif kind == "zero":
        v = np.array([0.0, -0.0, 0.0])
    elif kind == "random":
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        norm = np.linalg.norm(v)
        if norm > 0:
            v = v / norm
    return v


@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(file_vector(), max_size=12), textless=st.lists(st.booleans(), max_size=12),
       tau=TAU_GRID, data=st.data())
def test_file_vector_pairs_match_all_pairs_oracle(vectors, textless, tau, data):
    texts = [None if i < len(textless) and textless[i] else "t" for i in range(len(vectors))]
    c = draw_cluster(data, texts)
    provider = FileEmbedder(dict(zip(c.review_ids, vectors)))
    assert_matches_oracle(c, provider, draw_tau(data, tau, c, provider))


class TestPairMining:
    @pytest.mark.parametrize("texts", [
        [*ORDER_TWINS, ORDER_PROBE],
        [ORDER_PROBE, *ORDER_TWINS],
        # equal lengths: cosine walks its first argument, so the two cross
        # pairs are summed in different orders
        ["c a d f a", "e d d a c", "c a d f a"],
    ], ids=["twins-first", "twins-second", "argument-order"])
    def test_summation_order_decides_a_tie_with_tau(self, texts):
        # One member pair has equal vectors; the two cross pairs score 1 ulp
        # apart only through the order of the float sum, so with tau at the
        # higher one exactly one of them is a pair.
        vectors = [lexical_vector(t) for t in texts]
        cross = [cosine(vectors[i], vectors[j]) for i in range(3) for j in range(i + 1, 3)
                 if vectors[i] != vectors[j]]
        assert len(cross) == 2 and cross[0] != cross[1]
        c = members_with_ids(texts, [0, 1, 2])
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), max(cross))
        assert analysis.pair_count == 2
        assert_matches_oracle(c, LexicalEmbedder(), max(cross))

    def test_pair_whose_gram_entry_rounds_below_tau_is_found(self):
        # The sparse product sums these two vectors' common terms in another
        # order than cosine does and lands 1 ulp lower; with tau at the
        # cosine the pair must still be found, through the rounding margin.
        texts = ["d e g d f e d g", "d f b a e"]
        tau = cosine(*(lexical_vector(t) for t in texts))
        c = members_with_ids(texts, [0, 1])
        assert PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau).pair_count == 1
        assert_matches_oracle(c, LexicalEmbedder(), tau)

    @pytest.mark.parametrize("tau", [1.0, 0.95, 0.6, 0.3])
    def test_gram_blocks_match_oracle(self, monkeypatch, tau):
        monkeypatch.setattr(clusters_module, "_PREFIX_BLOCK_ENTRIES", 50)
        words = ["good", "app", "very", "nice", "bad", "earn"]
        rng = np.random.default_rng(7)
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 5))) for _ in range(40)]
        c = members_with_ids(texts, rng.permutation(len(texts)).tolist())
        assert_matches_oracle(c, LexicalEmbedder(), tau)

    @pytest.mark.parametrize("tau", [1.0, 0.9, 0.5])
    def test_dense_gram_blocks_match_oracle(self, monkeypatch, tau):
        monkeypatch.setattr(clusters_module, "_GRAM_BLOCK_ENTRIES", 50)
        rng = np.random.default_rng(7)
        vectors = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
        vectors /= np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1.0)
        c = members_with_ids(["t"] * len(vectors), rng.permutation(len(vectors)).tolist())
        assert_matches_oracle(c, FileEmbedder(dict(zip(c.review_ids, vectors))), tau)

    @pytest.mark.parametrize("texts", [
        ("u u w t p b d", "b d"), ("u w p s r d c a", "d c a"), ("s w r p v a a", "a a"),
        ("r u v c a b b", "c a b b"), ("w a c", "a c"), ("p c b a c", "c b a c"),
    ])
    def test_a_suffix_as_long_as_cauchy_schwarz_allows_is_indexed(self, texts):
        # The first text is other words followed by the second, so the
        # second's terms are the only ones the two share, the last in rank
        # order, and their weights are proportional: the dot product equals
        # the norm of that suffix. With tau at the cosine, only the prefix
        # bound's rounding margin keeps a shared term in both prefixes.
        tau = cosine(*(lexical_vector(t) for t in texts))
        c = members_with_ids(list(texts), [0, 1])
        assert PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), tau).pair_count == 1
        assert_matches_oracle(c, LexicalEmbedder(), tau)

    def test_one_lexical_vector_per_distinct_text(self, monkeypatch):
        """Members with equal text share one vector; a sidecar, whose
        vectors are keyed by review id, is asked once for the whole column."""
        made = []

        def counted(text):
            made.append(text)
            return lexical_vector(text)

        monkeypatch.setattr(clusters_module, "lexical_vector", counted)
        texts = [f"template {i % 5} of one lockstep campaign" for i in range(1000)]
        c = members_with_ids(texts, range(1000))
        analysis = PairAnalysis(c.review_ids, c.texts, LexicalEmbedder(), 0.95)
        assert sorted(made) == sorted(set(texts))
        assert analysis.pair_count == 5 * (200 * 199 // 2)

        asked = []

        class CountingEmbedder(FileEmbedder):
            def vectors(self, review_ids, texts):
                asked.append(list(review_ids))
                return super().vectors(review_ids, texts)

        vectors = {r: np.eye(5)[i % 5] for i, r in enumerate(c.review_ids)}
        analysis = PairAnalysis(c.review_ids, c.texts, CountingEmbedder(vectors), 1.0)
        assert asked == [list(c.review_ids)]
        assert analysis.pair_count == 5 * (200 * 199 // 2)

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_keys_in_one_order_with_other_weights_are_other_groups(self, tau):
        """Each pair of texts gives dicts with the same keys in the same
        order but other weights: they pair only as their cosine says."""
        c = members_with_ids(["a b a b", "a b a", "app app", "app app app"], range(4))
        assert_matches_oracle(c, LexicalEmbedder(), tau)

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_arrays_equal_but_for_a_zeros_sign_pair_whatever_their_norm(self, tau):
        """FileEmbedder.load leaves a vector whose squared norm underflows
        as it is, so no rounding margin reaches its dot product with an
        equal one; the -0.0 variant must share its group. A NaN vector
        pairs with nothing, not even with itself."""
        nan = np.array([np.nan, 1.0])
        vectors = [np.array([1e-200, 0.0]), np.array([0.6, 0.8]), np.array([1e-200, -0.0]),
                   nan, nan]
        c = members_with_ids(["t"] * len(vectors), range(len(vectors)))
        provider = FileEmbedder(dict(zip(c.review_ids, vectors)))
        assert PairAnalysis(c.review_ids, c.texts, provider, tau).pair_count == 1
        assert_matches_oracle(c, provider, tau)

    def test_report_lists_ten_of_many_pairs(self):
        c = members_with_ids(["same text"] * 8 + ["other words"] * 6, range(14))
        (entry,) = build_cluster_report([c], LexicalEmbedder(), 1.0)
        assert entry["pair_count"] == 28 + 15
        assert len(entry["top_pairs"]) == 10
        assert_matches_oracle(c, LexicalEmbedder(), 1.0)


def grouping_peak(vectors) -> int:
    """Bytes that ``_equal_vector_groups`` holds at its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        clusters_module._equal_vector_groups(vectors)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGroupingMemory:
    """The grouping keys each vector by its stored form, which costs about
    what the vector holds: no key that copies every entry into new objects."""

    def test_dense_keys_stay_within_the_vectors_size(self):
        rng = np.random.default_rng(0)
        vectors = list(rng.standard_normal((300, 384)))
        vectors = [v / np.linalg.norm(v) for v in vectors]
        assert grouping_peak(vectors) <= 2 * sum(v.nbytes for v in vectors)

    def test_lexical_keys_stay_within_40_bytes_a_term(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(200)]
        vectors = [lexical_vector(" ".join(rng.choice(words, 30))) for _ in range(300)]
        assert grouping_peak(vectors) <= 40 * sum(map(len, vectors))
