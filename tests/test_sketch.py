from collections import defaultdict
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewstream.sketch import CountMinSketch, derive_row_seeds


def test_fresh_insert_overestimates():
    s = CountMinSketch(2, 64)
    s.insert("x", 1.0)
    assert s.estimate("x") >= 1.0


def test_never_inserted_key_is_zero():
    assert CountMinSketch(2, 64).estimate("ghost") == 0.0


def test_additivity():
    s = CountMinSketch(2, 64)
    s.insert("x", 3.0)
    s.insert("x", 2.0)
    assert s.estimate("x") >= 5.0


def test_zero_weight_is_identity():
    s = CountMinSketch(2, 64)
    s.insert("x", 1.0)
    before = s.counters.copy()
    s.insert("y", 0.0)
    assert np.array_equal(s.counters, before)
    assert s.estimate("y") == 0.0


@pytest.mark.parametrize("rows, cols", [(0, 4), (2, 0)])
def test_empty_geometry_rejected(rows, cols):
    with pytest.raises(ValueError, match=f"rows and cols must be positive, got {rows}x{cols}"):
        CountMinSketch(rows, cols)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        CountMinSketch(2, 64).insert("x", -1.0)


def test_collision_free_regime_is_exact():
    # few keys, wide rows: estimates match a plain dict counter
    keys = [f"key{i}" for i in range(40)]
    s = CountMinSketch(4, 4096, derive_row_seeds(11, 4))
    exact: dict[str, float] = defaultdict(float)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        k = keys[rng.integers(len(keys))]
        w = float(rng.integers(1, 5))
        s.insert(k, w)
        exact[k] += w
    for k in keys:
        assert s.estimate(k) == exact[k]


def test_single_column_counts_everything():
    # w=1 forces every key onto one counter per row
    s = CountMinSketch(2, 1)
    s.insert("x", 1.0)
    s.insert("y", 1.0)
    assert s.estimate("x") == 2.0


def test_decay_halves_counters():
    s = CountMinSketch(2, 4)
    s.counters[:] = 4.0
    s.decay(0.5)
    assert np.all(s.counters == 2.0)


def test_decay_one_is_identity():
    s = CountMinSketch(2, 4)
    s.insert("x", 3.0)
    before = s.counters.copy()
    s.decay(1.0)
    assert np.array_equal(s.counters, before)


def test_decay_zero_clears():
    s = CountMinSketch(2, 4)
    s.insert("x", 3.0)
    s.decay(0.0)
    assert np.all(s.counters == 0.0)


def test_decay_range_checked():
    with pytest.raises(ValueError):
        CountMinSketch(2, 4).decay(1.5)


@settings(max_examples=100)
@given(ops=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)), max_size=200),
       rows=st.integers(1, 4), cols=st.sampled_from([1, 2, 16, 256]))
def test_overestimation_against_dict_oracle(ops, rows, cols):
    s = CountMinSketch(rows, cols, derive_row_seeds(3, rows))
    exact: dict[str, int] = defaultdict(int)
    for key_num, weight in ops:
        key = f"k{key_num}"
        s.insert(key, float(weight))
        exact[key] += weight
    for key, count in exact.items():
        assert s.estimate(key) >= count


def test_inserts_never_decrease_estimates():
    s = CountMinSketch(2, 16)
    keys = [f"k{i}" for i in range(10)]
    previous = {k: 0.0 for k in keys}
    rng = np.random.default_rng(5)
    for _ in range(300):
        s.insert(keys[rng.integers(10)], 1.0)
        for k in keys:
            est = s.estimate(k)
            assert est >= previous[k]
            previous[k] = est


def test_memory_is_constant():
    s = CountMinSketch(2, 1024)
    base = s.memory_bytes
    for i in range(10_000):
        s.insert(f"key{i}", 1.0)
    assert s.memory_bytes == base == 2 * 1024 * 8


def test_deterministic_under_fixed_seeds():
    a = CountMinSketch(3, 128, derive_row_seeds(42, 3))
    b = CountMinSketch(3, 128, derive_row_seeds(42, 3))
    for i in range(500):
        a.insert(f"k{i % 17}", 1.0)
        b.insert(f"k{i % 17}", 1.0)
    assert np.array_equal(a.counters, b.counters)
    assert a.locate("anything") == b.locate("anything")


def test_seed_count_must_match_rows():
    with pytest.raises(ValueError):
        CountMinSketch(3, 8, seeds=(1, 2))


def test_layout_is_keyed_blake2b_per_row():
    seeds = derive_row_seeds(9, 3)
    s = CountMinSketch(3, 1000, seeds)
    for key in ("", "app", "ünïcode", "x" * 200):
        assert s.locate(key) == s.locate(key.encode("utf-8")) == tuple(
            int.from_bytes(blake2b(key.encode("utf-8"), digest_size=8,
                                   key=seed.to_bytes(8, "little")).digest(), "big") % 1000
            for seed in seeds
        )
