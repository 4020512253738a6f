"""Decaying count-min sketch.

A fixed grid of ``rows x cols`` float counters. Inserting a key adds its
weight to one counter per row (chosen by a per-row seeded hash); querying
returns the minimum of those counters. With no decay applied the estimate
never underestimates the true count, because every counter a key touches
receives at least that key's full weight.

Counters are floats, not ints: temporal decay multiplies the whole grid
by a factor in [0, 1], which scales counts fractionally. Memory is
exactly ``rows * cols`` counters regardless of how many keys or inserts
pass through.

Hashing is BLAKE2b keyed with an 8-byte per-row seed, so layouts are
deterministic for fixed seeds on every platform. A caller that looks a
key up many times can hash it once via :meth:`locate` and index
``counters`` with its slots, as the detector does.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

_MASK64 = (1 << 64) - 1
DEFAULT_SEED = 7  # master seed of the per-row hash seeds


def derive_row_seeds(master_seed: int, rows: int) -> tuple[int, ...]:
    """Expand one master seed into per-row hash seeds."""
    return tuple((master_seed + i) & _MASK64 for i in range(rows))


class CountMinSketch:
    __slots__ = ("rows", "cols", "seeds", "counters", "_hashers")

    def __init__(self, rows: int, cols: int, seeds: tuple[int, ...] | None = None):
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be positive, got {rows}x{cols}")
        if seeds is None:
            seeds = derive_row_seeds(DEFAULT_SEED, rows)
        seeds = tuple(int(s) & _MASK64 for s in seeds)
        if len(seeds) != rows:
            raise ValueError(f"need {rows} seeds, got {len(seeds)}")
        self.rows = rows
        self.cols = cols
        self.seeds = seeds
        # A copy of a keyed hasher skips re-hashing the key block per lookup.
        self._hashers = [blake2b(digest_size=8, key=s.to_bytes(8, "little")) for s in seeds]
        self.counters = np.zeros((rows, cols), dtype=np.float64)

    def locate(self, key: str | bytes) -> tuple[int, ...]:
        """Column index of ``key`` in each row."""
        data = key.encode("utf-8") if isinstance(key, str) else key
        slots = []
        for hasher in self._hashers:
            h = hasher.copy()
            h.update(data)
            slots.append(int.from_bytes(h.digest(), "big") % self.cols)
        return tuple(slots)

    def insert(self, key: str | bytes, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        for row, col in enumerate(self.locate(key)):
            self.counters[row, col] += weight

    def estimate(self, key: str | bytes) -> float:
        counters = self.counters
        return float(min(counters[row, col] for row, col in enumerate(self.locate(key))))

    def decay(self, alpha: float) -> bool:
        """Multiply every counter by ``alpha`` in [0, 1]; return whether
        any counter changed."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if alpha == 1.0:
            return False
        before = self.counters.copy()
        self.counters *= alpha
        return not np.array_equal(self.counters, before)

    @property
    def memory_bytes(self) -> int:
        return self.counters.nbytes
