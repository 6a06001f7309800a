"""Reproducible random streams for chain ensembles.

Every chain in an ensemble owns one stream, identified by a ``(seed,
stream_index)`` pair.  Streams are counter-based (Philox), so the pair fully
determines the draw sequence regardless of process, thread schedule, or
platform, and distinct indices give statistically independent streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .stats import checked_integer


class RandomStream:
    """A reproducible random stream keyed by ``(seed, stream_index)``.

    Args:
        seed: Non-negative integer seed shared by the whole ensemble.
        stream_index: Non-negative index of this stream within the ensemble.
            Index 0 is conventionally reserved for shared (non-chain) draws;
            chain j uses index j + 1.

    The same pair always reproduces the same draw sequence bit for bit, and
    drawing in batches consumes the underlying bit stream exactly as the
    equivalent sequence of scalar draws would.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = checked_integer("seed", seed, 0)
        self.stream_index = checked_integer("stream_index", stream_index, 0)
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        self.generator = np.random.Generator(np.random.Philox(key))

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def random(self, size=None):
        return self.generator.random(size)

    def integers(self, low: int, high: Optional[int] = None, size=None):
        return self.generator.integers(low, high, size=size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_index={self.stream_index})"
