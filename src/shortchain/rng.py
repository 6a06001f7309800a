"""Reproducible random streams for chain ensembles.

Every chain in an ensemble owns one stream, identified by a ``(seed,
stream_index)`` pair.  Streams are counter-based (Philox), so the pair fully
determines the draw sequence regardless of process, thread schedule, or
platform, and distinct indices give statistically independent streams.

A stream's Philox key is NumPy's ``SeedSequence(seed, spawn_key=(index,))``
state.  ``chain_streams`` builds an ensemble's streams from one vectorised
derivation of all their keys, ``_philox_keys``, pinned to that state bit for
bit, so its streams draw exactly what ``RandomStream`` draws.

``step_noise`` is the one owner of a run's step noise: it picks how the
noise is drawn and returns an object whose ``fill()`` writes one step's
noise for every chain, either way with the bits of each chain's own
``standard_normal`` and ``random`` calls.  ``ChainCalls`` makes those
calls.  ``StepNoise`` fetches each chain's raw 64-bit words in chunks and
decodes them as NumPy does, uniforms as their top 53 bits and normals by
NumPy's ziggurat (Marsaglia & Tsang, 2000).  The ziggurat's tables are read
once a process from the installed NumPy by feeding crafted words through a
spare Philox, and a probe checks the decode against NumPy's own draws;
when a check fails, every run draws chain by chain.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

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


# A normal's word (NumPy's random_standard_normal): bits 0-7 pick the layer,
# bit 8 the sign and bits 9-60 the magnitude; a uniform is its top 53 bits.
_LAYER, _SIGNED, _MAGNITUDE, _TOP = 0xFF, 0x1FF, (1 << 52) - 1, 1 << 52
_MARGIN = 1e-12  # a wedge test this close is replayed through NumPy
# words fetched per refill across all chains, step_noise's cap on a step's, and
# the words (whole rows, at least one) whose temporaries, 32 bytes each,
# _Resolved holds at once; a resolved block keeps 20 bytes a word, so this
# bounds the decoder's memory
_CHUNK_WORDS = 1 << 14
_PROBE_KEY = 2023
# the bulk decode's size rule, set from tools/noise_sweep.py's sweep of d,
# kernel and N; 31 words admit the d=30 preset under RWMH, MALA and HMC, a
# gain measured in alternating benchmark pairs (CHANGES.md)
_DECODE_WORDS, _DECODE_CHAINS = 31, 100


class _Ziggurat(NamedTuple):
    # wi and ki are indexed by a word's layer and sign bits
    wi: np.ndarray  # layer widths over 2**52, then their negatives
    ki: np.ndarray  # fast-path bounds on the magnitude, twice over
    fi: np.ndarray  # exp(-x_i**2 / 2) at each layer's edge, to about 1e-15
    r: float  # where the tail starts


def _normal_of_words(generator, words) -> tuple:
    """``generator.standard_normal()`` on a Philox whose next words are
    ``words`` (at most 4, then 0s); returns the value and how many words it
    read, 5 for more than 4."""
    bits = generator.bit_generator
    state = bits.state
    state["state"]["counter"][:] = 0
    state["buffer"] = np.array([*words, 0, 0, 0, 0][:4], np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    value = generator.standard_normal()
    after = bits.state
    return value, 5 if after["state"]["counter"].any() else after["buffer_pos"]


@functools.cache
def _ziggurat() -> Optional[_Ziggurat]:
    """The installed NumPy's standard normal tables, read once a process by
    feeding crafted words through a spare Philox's state buffer, or None
    when a layer's ``ki`` is not one of its two candidates or ``_probe``
    finds a decode that differs from NumPy's."""
    spare = np.random.Generator(np.random.Philox(0))

    def word(layer: int, magnitude: int) -> int:
        return magnitude << 9 | layer

    # magnitude 1 returns wi itself: on the fast path, or where ki is 0
    # through a wedge test that the uniform 0 passes
    wi = np.array([_normal_of_words(spare, [word(i, 1), 0])[0] for i in range(256)])
    # layer i spans x_(i-1)..x_i with x_i = wi[i] * 2**52 and x_0 = 0; layer 0
    # is the base strip and the tail past r = x_255, its wi sized by area
    x = wi * 2.0 ** 52
    edges = np.concatenate(([0.0], x[1:]))
    guesses = np.concatenate(([x[255] / x[0]], edges[:-1] / edges[1:])) * 2.0 ** 52

    def fast(i: int, m: int) -> bool:  # magnitude m of layer i reads one word
        return m < 0 or _normal_of_words(spare, [word(i, m), 0])[1] == 1

    def least_slow(i: int, g: int) -> Optional[int]:
        # layer i's ki, its least magnitude off the fast path, if that is its
        # guess g (g - 1 fast and g not) or g + 1 (g fast and g + 1 not)
        if fast(i, g):
            return None if fast(i, g + 1) else g + 1
        return g if fast(i, g - 1) else None

    ki = [least_slow(i, min(int(g), _TOP - 2)) for i, g in enumerate(guesses)]
    if None in ki:
        return None
    tables = _Ziggurat(np.concatenate((wi, -wi)), np.array(ki + ki, np.uint64),
                       np.exp(-0.5 * edges * edges), float(x[255]))
    for table in tables[:3]:  # shared by every run in the process
        table.flags.writeable = False
    return tables if _probe(tables, spare) else None


def _probe(tables: _Ziggurat, spare) -> bool:
    """Whether decoding with ``tables`` gives NumPy's draws bit for bit: one
    stream's fill of 1,000 normals and 100 uniforms, and 256 crafted slow
    words (a quarter in the tail), each followed by three natural words."""
    eps, uniforms = np.empty((1, 1000)), np.empty((1, 100))
    StepNoise([RandomStream(_PROBE_KEY)], eps, uniforms, 1, tables).fill()
    natural = RandomStream(_PROBE_KEY)
    if not (np.array_equal(eps[0], natural.standard_normal(1000))
            and np.array_equal(uniforms[0], natural.random(100))):
        return False
    crafted = np.random.Philox(_PROBE_KEY).random_raw(1 << 10).reshape(256, 4)
    layer = crafted[:, 0] & _LAYER
    layer[::4] = 0
    low = tables.ki[layer]
    magnitude = low + (crafted[:, 0] >> 9) % (_TOP - low)
    crafted[:, 0] = magnitude << 9 | crafted[:, 0] & 0x100 | layer
    resolved = _Resolved(np.hstack((crafted, crafted[:, :1])), tables)
    for j, four in enumerate(crafted.tolist()):
        value, read = _normal_of_words(spare, four)
        got = resolved.val[j, 0]
        if (read == 5) != math.isnan(got) or read < 5 and (
                value != got or resolved.skip[j, 0] != read):
            return False
    return True


class _Resolved:
    """Chains' words, one row a chain, each resolved as the start of a normal:
    ``val`` holds the normal drawn from there and ``skip`` how many words it
    reads.

    The last column stands for the end of each row: a normal that would read
    past it is NaN and skips to it, and the end skips 0.  Fast words are
    decoded across the block, ``_CHUNK_WORDS`` words of whole rows at a
    time, so the temporaries stay small.  Wedge words are settled across the
    block too, by ``np.exp`` outside ``_MARGIN`` and by NumPy itself on their
    two words inside it.  Tail words are settled one at a time with
    ``math.log1p``, as NumPy's C code settles them, and a rejected wedge word
    takes the normal drawn two words on.
    """

    def __init__(self, words: np.ndarray, tables: _Ziggurat):
        """``words`` is (n, c + 1): c words a chain, then the end column,
        which this overwrites."""
        n, width = words.shape
        words[:, -1] = 0  # a fast word, so the end is never settled below
        self.words = words
        self.val = val = np.empty((n, width))
        slow = np.empty((n, width), bool)
        step = max(1, _CHUNK_WORDS // width)
        for first in range(0, n, step):
            rows = slice(first, first + step)
            signed = words[rows].view(np.int64) & _SIGNED
            magnitude = words[rows] >> 9
            magnitude &= _MAGNITUDE
            np.greater_equal(magnitude, tables.ki.take(signed), out=slow[rows])
            np.multiply(tables.wi.take(signed), magnitude, out=val[rows])
        del signed, magnitude
        slow = np.flatnonzero(slow)
        slow_words = words.ravel()[slow]
        layer, magnitude = slow_words & _LAYER, slow_words >> 9 & _MAGNITUDE
        self.skip = skip = np.ones((n, width), np.int32)
        val[:, -1], skip[:, -1] = np.nan, 0
        val, skip, flat = val.ravel(), skip.ravel(), words.ravel()

        end = slow - slow % width + width - 1  # each slow word's row end
        x = val[slow]
        val[slow], skip[slow] = np.nan, end - slow  # until settled below
        settled = (layer > 0) & (slow + 1 < end)
        wedge, x, tail = slow[settled], x[settled], layer == 0
        u = (flat[wedge + 1] >> 11) * 2.0 ** -53
        top, bottom = tables.fi[layer[settled] - 1], tables.fi[layer[settled]]
        gap = (top - bottom) * u + bottom - np.exp(-0.5 * x * x)
        accept = gap < 0
        for i in np.flatnonzero(abs(gap) <= _MARGIN):
            spare = np.random.Generator(np.random.Philox(0))
            accept[i] = _normal_of_words(spare, flat[wedge[i]:wedge[i] + 2].tolist())[1] == 2
        val[wedge[accept]], skip[wedge[accept]] = x[accept], 2

        r, inv_r = tables.r, 1.0 / tables.r
        for at, stop, m in zip(slow[tail].tolist(), end[tail].tolist(),
                               magnitude[tail].tolist()):
            for t in range(at + 1, stop - 1, 2):
                u1, u2 = ((flat[t:t + 2] >> 11) * 2.0 ** -53).tolist()
                xx, yy = -inv_r * math.log1p(-u1), -math.log1p(-u2)
                if yy + yy > xx * xx:
                    val[at], skip[at] = -(r + xx) if m >> 8 & 1 else r + xx, t + 2 - at
                    break

        rejected = wedge[~accept]
        on = rejected + 2
        chained = np.zeros(val.size, bool)
        chained[rejected] = True
        while (again := chained[on]).any():
            on[again] += 2
        val[rejected], skip[rejected] = val[on], on - rejected + skip[on]


class StepNoise:
    """Every chain's step noise, decoded in bulk from the chain's own words.

    ``fill`` writes into ``eps`` and ``uniforms`` exactly what each chain's
    ``standard_normal(out=eps[j])`` and ``random(out=uniforms[j])`` would.
    The words come from each chain's bit generator in refills of about
    ``_CHUNK_WORDS`` in all, but at least 4 steps' words a chain, or of what
    ``steps`` fills need with a spare word a step, if fewer; the words a
    refill leaves unread lead each chain's row of the next block, so no
    word is drawn twice or skipped, and each row is topped up to the
    longest such carry plus the refill's words a chain.
    """

    def __init__(self, streams, eps: np.ndarray, uniforms: np.ndarray, steps: int,
                 tables: _Ziggurat):
        self.bits = [s.generator.bit_generator for s in streams]
        self.eps, self.uniforms, self.tables = eps, uniforms, tables
        (n, d), k = eps.shape, uniforms.shape[1]
        self.uniform_cols = np.arange(k)
        self.width = max(4 * (d + k), min(_CHUNK_WORDS // n, (d + k + 1) * steps))
        self.block = _Resolved(np.zeros((n, 1), np.uint64), tables)
        self.start = np.arange(n)  # each chain's next word, flat in the block
        self.limit = self.start - d - k  # the last start with a step's words left

    def __len__(self) -> int:
        return len(self.eps)

    def fill(self):
        """One step's noise for every chain; refills when a chain would read
        past the block."""
        while not self._step():
            self._refill()

    def _step(self) -> bool:
        eps, block = self.eps, self.block
        if (self.start > self.limit).any():
            return False
        val, skip = block.val.ravel(), block.skip.ravel()
        on = self.start.copy()
        for i in range(eps.shape[1]):
            eps[:, i] = val.take(on)
            on += skip.take(on)
        if (on > self.limit + eps.shape[1]).any():  # a normal read past its row
            return False
        words = block.words.ravel().take(on[:, None] + self.uniform_cols)
        np.multiply(words >> 11, 2.0 ** -53, out=self.uniforms)
        self.start = on + len(self.uniform_cols)
        return True

    def _refill(self):
        (n, d), k = self.eps.shape, len(self.uniform_cols)
        old = self.block.words.ravel()
        self.block = None  # its values freed before the next is resolved
        # each chain's unread words lead its new row (the gathered words past
        # them are overwritten below), and every row is topped up to one
        # length, so chains that drift apart do not widen the blocks
        carry = self.limit + d + k - self.start
        keep = int(carry.max())
        words = np.empty((n, keep + self.width + 1), np.uint64)
        words[:, :keep] = old.take(self.start[:, None] + np.arange(keep), mode="clip")
        del old
        end = keep + self.width
        for row, bits, c in zip(words, self.bits, carry.tolist()):
            row[c:-1] = bits.random_raw(end - c)
        self.block = _Resolved(words, self.tables)
        self.start = np.arange(n) * words.shape[1]
        self.limit = self.start + end - d - k


class ChainCalls:
    """Every chain's step noise from the chain's own two calls a step:
    ``standard_normal(out=eps[j])``, then ``random(out=uniforms[j])``."""

    def __init__(self, streams, eps: np.ndarray, uniforms: np.ndarray):
        self.calls = [(s.generator.standard_normal, s.generator.random, e, u)
                      for s, e, u in zip(streams, eps, uniforms)]

    def __len__(self) -> int:
        return len(self.calls)

    def fill(self):
        """One step's noise for every chain."""
        for normal, uniform, e, u in self.calls:
            normal(out=e)
            uniform(out=u)


def step_noise(streams, eps: np.ndarray, uniforms: np.ndarray, steps: int):
    """What fills ``eps`` and ``uniforms`` with ``streams``' noise, one step
    a ``fill()``, for ``steps`` fills; either way with the bits of each
    chain's own calls.

    It is a ``StepNoise`` where per-chain call overhead outweighs the decode,
    at most ``_DECODE_WORDS`` (31) words a chain and step over at least
    ``_DECODE_CHAINS`` chains, and where this NumPy's draws decode: the d=30
    preset under RWMH, MALA and HMC reads 31 words a step and decodes, and
    Barker past d=15 draws chain by chain.  A step's words across all
    chains are also held to one refill's ``_CHUNK_WORDS``, so a block of 4
    steps' words, the refill floor, stays near 2 MB.  Otherwise it is
    ``ChainCalls``.
    """
    (n, d), k = eps.shape, uniforms.shape[1]
    decodes = d + k <= _DECODE_WORDS and n >= _DECODE_CHAINS and n * (d + k) <= _CHUNK_WORDS
    tables = _ziggurat() if decodes else None
    if tables is None:
        return ChainCalls(streams, eps, uniforms)
    return StepNoise(streams, eps, uniforms, steps, tables)
