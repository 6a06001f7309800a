"""Reproducible random streams for chain ensembles.

Every chain in an ensemble owns one stream, identified by a ``(seed,
stream_index)`` pair.  Streams are counter-based (Philox), so the pair fully
determines the draw sequence regardless of process, thread schedule, or
platform, and distinct indices give statistically independent streams.

A stream's Philox key is NumPy's ``SeedSequence(seed, spawn_key=(index,))``
state.  ``chain_streams`` builds an ensemble's streams from one vectorised
derivation of all their keys, ``_philox_keys``, pinned to that state bit for
bit, so its streams draw exactly what ``RandomStream`` draws.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .stats import checked_integer

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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


def _philox_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)`` for
    every index i in [0, 2**32) of the (n,) integer array ``indices`` at once,
    as an (n, 2) uint64 array.

    A spawn key's words are mixed into the pool after the seed's, so the pool
    before them is ``SeedSequence(seed).pool``, shared by every index.  Each
    index word is then mixed into it, and the key generated from it, as
    uint32 array operations, which wrap as NumPy's C code does.
    """
    def hashes(init, mult, first):  # a hash constant's values at calls first..first + 4
        return np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                         for k in range(first, first + 5)], np.uint32)

    # hashmix calls before the index word's: 4 filled the pool, 12 mixed it,
    # and 4 mixed in each seed word past the fourth
    a = hashes(_INIT_A, _MULT_A, 4 * max(4, -(-seed.bit_length() // 32)))
    hashed = (indices.astype(np.uint32)[:, None] ^ a[:4]) * a[1:]
    mixed = _MIX_L * np.random.SeedSequence(seed).pool - _MIX_R * (hashed ^ hashed >> 16)
    b = hashes(_INIT_B, _MULT_B, 0)
    state = (mixed ^ mixed >> 16 ^ b[:4]) * b[1:]
    return (state ^ state >> 16).astype("<u4").view("<u8").astype(np.uint64)


class _Key(ISeedSequence):
    """The seed of a ``Philox`` whose key is already derived."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def chain_streams(seed: int, n: int) -> list:
    """The streams ``RandomStream(seed, j)`` for j = 1..n, chain j - 1's, each
    drawing what its ``RandomStream`` draws, from one key derivation."""
    seed = checked_integer("seed", seed, 0)
    streams = []
    for j, key in enumerate(_philox_keys(seed, np.arange(1, n + 1)), 1):
        stream = RandomStream.__new__(RandomStream)
        stream.seed, stream.stream_index = seed, j
        stream.generator = np.random.Generator(np.random.Philox(_Key(key)))
        streams.append(stream)
    return streams
