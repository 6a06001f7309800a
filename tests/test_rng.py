"""The bulk step-noise decoder: the same draws as each chain's own calls.

``rng.StepNoise`` decodes NumPy's standard normal ziggurat and its uniforms
from each chain's raw Philox words.  Every test compares it with
``Generator.standard_normal`` and ``Generator.random`` on the same words,
bit for bit: on natural streams after the prefixes a run's x0 draw leaves,
and on streams whose first words are crafted, through a Philox's state
buffer, to reach each of the decoder's slow paths.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shortchain import rng
from shortchain.rng import ChainCalls, StepNoise, chain_streams

TABLES = rng._ziggurat()
LAYER_WEDGE = 100  # a layer whose slow words take the wedge test


def word(layer, magnitude, negative=False):
    return magnitude << 9 | int(negative) << 8 | layer


def uniform_word(u):
    # the word whose top 53 bits are u * 2**53
    return int(u * 2.0 ** 53) << 11


def crafted_stream(first_words, key=5):
    """A stream whose Philox hands out ``first_words`` (at most 4, then 0s,
    each a fast normal), then its natural words for ``key``."""
    bits = np.random.Philox(key=key)
    state = bits.state
    state["buffer"] = np.array(first_words + [0] * (4 - len(first_words)), np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    return SimpleNamespace(generator=np.random.Generator(bits))


def assert_same_steps(streams, references, d, k, steps):
    """Every step's noise from ``StepNoise`` over ``streams`` equals each
    reference generator's standard_normal(d), then random(k), bit for bit.
    Refills take the fewest words, 4 steps' worth; ``noise.refills`` counts
    them."""
    eps, uniforms = np.empty((len(streams), d)), np.empty((len(streams), k))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_CHUNK_WORDS", 1)
        noise = StepNoise(streams, eps, uniforms, steps, TABLES)
    noise.refills, refill = 0, noise._refill

    def counted():
        noise.refills += 1
        refill()

    noise._refill = counted
    for step in range(steps):
        noise.fill()
        for j, generator in enumerate(references):
            assert eps[j].tobytes() == generator.standard_normal(d).tobytes(), (step, j)
            assert uniforms[j].tobytes() == generator.random(k).tobytes(), (step, j)
    return noise


def test_tables_pass_their_probe():
    assert TABLES is not None
    assert TABLES.wi.shape == TABLES.ki.shape == (512,) and TABLES.fi.shape == (256,)


def test_every_ki_is_exact():
    # each layer's ki is its least magnitude off the fast path: NumPy's own
    # standard_normal reads one word below it and more at it
    spare = np.random.Generator(np.random.Philox(0))

    def reads(layer, magnitude):
        return rng._normal_of_words(spare, [word(layer, magnitude), 0])[1]

    assert np.array_equal(TABLES.ki[:256], TABLES.ki[256:])
    for layer, ki in enumerate(TABLES.ki[:256].tolist()):
        assert ki == 0 or reads(layer, ki - 1) == 1, layer
        assert reads(layer, ki) > 1, layer


@pytest.mark.parametrize("d, k, n, decodes", [
    pytest.param(20, 11, 100, True, id="31-words"),
    pytest.param(21, 11, 100, False, id="32-words"),
    pytest.param(5, 1, 99, False, id="99-chains"),
    pytest.param(5, 1, 100, True, id="100-chains"),
    pytest.param(15, 1, rng._CHUNK_WORDS // 16, True, id="a-refill-a-step"),
    pytest.param(15, 1, rng._CHUNK_WORDS // 16 + 1, False, id="past-a-refill-a-step")])
def test_step_noise_size_rule(d, k, n, decodes):
    # the decode takes at most 31 words a chain and step, over at least 100
    # chains and at most _CHUNK_WORDS words a step across them; either side
    # fills each chain's own draws
    eps, uniforms = np.empty((n, d)), np.empty((n, k))
    noise = rng.step_noise(chain_streams(3, n), eps, uniforms, 5)
    assert type(noise) is (StepNoise if decodes else ChainCalls)
    assert len(noise) == n
    references = chain_streams(3, n)
    for step in range(2):
        noise.fill()
        for j in (0, n - 1):
            assert eps[j].tobytes() == references[j].standard_normal(d).tobytes(), (step, j)
            assert uniforms[j].tobytes() == references[j].random(k).tobytes(), (step, j)


class TestSameDraws:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           barker=st.booleans(), dimension=st.integers(1, 30),
           prefix=st.sampled_from(["normals", "integers"]), m=st.integers(0, 7),
           rows=st.integers(1, 2**31 - 1))
    def test_every_step_equals_each_chains_calls(self, seed, n, barker, dimension,
                                                 prefix, m, rows):
        # d and the uniform count on the decoded side of rng.step_noise's size
        # rule; 14 steps span at least 3 refills, since one holds at most 5 steps
        d = min(dimension, 10) if barker else dimension
        k = d + 1 if barker else 1
        streams, references = chain_streams(seed, n), chain_streams(seed, n)
        for stream, reference in zip(streams, references):
            # as x0 draws: a mean-field point, or an empirical row index
            # (the 32-bit path, which leaves half a word buffered)
            for s in (stream, reference):
                if prefix == "normals":
                    s.standard_normal(m)
                else:
                    s.integers(0, rows)
        noise = assert_same_steps(streams, [s.generator for s in references], d, k, 14)
        assert noise.refills >= 3


class TestSlowWords:
    """Each slow path of the decoder on crafted first words, then natural ones."""

    def check(self, first_words, reads, d=2, k=1, steps=6):
        # NumPy's first normal reads ``reads`` of the words (5: past them)
        spare = np.random.Generator(np.random.Philox(0))
        assert rng._normal_of_words(spare, first_words)[1] == reads
        assert_same_steps([crafted_stream(first_words)],
                          [crafted_stream(first_words).generator], d, k, steps)

    def test_tail_word_whose_first_pair_is_rejected(self):
        # u1 near 1 puts xx near 1.9; u2 = 2**-20 leaves yy far below xx**2 / 2.
        # NumPy signs a tail value by bit 8 of the magnitude, set here, with
        # bit 9 and the word's sign bit clear
        tail = word(0, 2**52 - 1 - 2**9)
        assert tail >> 9 >= int(TABLES.ki[0])
        xx = -math.log1p(-(1 - 2.0 ** -10)) / TABLES.r
        assert 2 * -math.log1p(-(2.0 ** -20)) <= xx * xx
        self.check([tail, uniform_word(1 - 2.0 ** -10), uniform_word(2.0 ** -20), 0], 5)

    def test_wedge_accept(self):
        magnitude = int(TABLES.ki[LAYER_WEDGE]) + 1
        self.check([word(LAYER_WEDGE, magnitude, negative=True), uniform_word(0.0)], 2)

    def test_wedge_reject_followed_by_another_slow_word(self):
        # a magnitude at the layer's edge with u near 1 fails the wedge test;
        # the normal is drawn afresh from the next word, itself a wedge
        reject = word(LAYER_WEDGE, 2**52 - 1)
        self.check([reject, uniform_word(1 - 2.0 ** -20),
                    word(LAYER_WEDGE + 1, int(TABLES.ki[LAYER_WEDGE + 1]) + 7),
                    uniform_word(0.5)], 4)

    @pytest.mark.parametrize("first, natural", [
        # a wedge accept first shifts the last normal onto word 7, the
        # block's last, where it cannot be settled until the next block
        pytest.param("shifted", 3, id="starts-the-last-word"),
        # the normal on word 6 reads word 7 too, so the step's uniform falls
        # past the block and the step is drawn again from the next
        pytest.param("plain", 2, id="reads-the-last-word")])
    def test_slow_word_at_a_chunks_end(self, first, natural):
        # d = k = 1 reads the first block's 8 words as n u n u n u n u; words
        # 4-7 are natural: pick a key whose word there is slow, with the
        # words between fast
        first = ([word(LAYER_WEDGE, int(TABLES.ki[LAYER_WEDGE]) + 1), uniform_word(0.0), 0, 0]
                 if first == "shifted" else [0, 0, 0, 0])

        def slow(w):
            return (w >> 9) & (2**52 - 1) >= int(TABLES.ki[w & 0x1FF])

        key = next(key for key in range(10_000)
                   if (lambda w: slow(w[natural]) and not any(map(slow, w[:natural])))(
                       [int(w) for w in np.random.Philox(key=key).random_raw(4)]))
        noise = assert_same_steps([crafted_stream(first, key)],
                                  [crafted_stream(first, key).generator], 1, 1, 1)
        # the slow word reads past the block (NaN) or reads 2 words or more
        at = 4 + natural
        assert noise.block.words.shape == (1, 9)
        assert math.isnan(noise.block.val[0, at]) or noise.block.skip[0, at] > 1
        assert_same_steps([crafted_stream(first, key)], [crafted_stream(first, key).generator],
                          1, 1, 12)

    def test_wedge_test_inside_the_margin(self, monkeypatch):
        # u set so that the wedge test's two sides meet: NumPy settles it
        layer = LAYER_WEDGE
        magnitude = (int(TABLES.ki[layer]) + 2**52) // 2
        x = magnitude * TABLES.wi[layer]
        top, bottom = TABLES.fi[layer - 1], TABLES.fi[layer]
        u = (math.exp(-0.5 * x * x) - bottom) / (top - bottom)
        assert 0 < u < 1
        first = [word(layer, magnitude), uniform_word(u), 0, 0]
        self.check(first, rng._normal_of_words(np.random.Generator(np.random.Philox(0)),
                                               first)[1], steps=3)
        replays = []
        replay = rng._normal_of_words

        def counted(generator, words):
            replays.append(words)
            return replay(generator, words)

        monkeypatch.setattr(rng, "_normal_of_words", counted)
        assert_same_steps([crafted_stream(first)], [crafted_stream(first).generator], 2, 1, 3)
        assert replays == [first[:2]]
