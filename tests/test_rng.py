import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import RngStream, derive_seed
from causalkit.rng import (
    WordBlocks,
    categorical_indices,
    derive_seeds,
    first_words,
    philox_block,
)

VECTORS = json.loads(
    (Path(__file__).parent / "fixtures" / "rng_vectors.json").read_text())


class TestStreamVectors:
    def test_raw_words_match_committed_vectors(self):
        # pins the bit stream: any platform or dependency change that
        # alters draws fails here
        for entry in VECTORS["streams"]:
            s = RngStream(int(entry["seed"], 16))
            got = [format(s.raw64(), "#018x") for _ in range(16)]
            assert got == entry["raw64"], f"seed {entry['seed']}"

    def test_uniform_and_normal_derivations(self):
        for entry in VECTORS["streams"]:
            s = RngStream(int(entry["seed"], 16))
            u = [format(s.uniform01(), ".17g") for _ in range(4)]
            assert u == entry["uniform01"]
            s = RngStream(int(entry["seed"], 16))
            g = [format(s.normal(0.0, 1.0), ".17g") for _ in range(4)]
            assert g == entry["normal01"]

    def test_derived_seeds_match(self):
        for entry in VECTORS["derived"]:
            base = int(entry["base"], 16)
            got = [format(derive_seed(base, i), "#018x") for i in range(8)]
            assert got == entry["seeds"]


class TestStreamBehavior:
    def test_same_seed_same_sequence(self):
        a, b = RngStream(99), RngStream(99)
        assert [a.raw64() for _ in range(1000)] == \
            [b.raw64() for _ in range(1000)]

    def test_draw_counter(self):
        s = RngStream(0)
        s.uniform01()
        assert s.draw_count == 1
        s.normal(0, 1)
        assert s.draw_count == 3  # Box-Muller consumes two words

    def test_uniform_range(self):
        s = RngStream(5)
        for _ in range(10_000):
            u = s.uniform01()
            assert 0.0 <= u < 1.0

    def test_normal_moments(self):
        s = RngStream(7)
        xs = [s.normal(2.0, 3.0) for _ in range(50_000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 2.0) < 0.05
        assert abs(var - 9.0) < 0.3

    def test_randint_below_covers_range(self):
        s = RngStream(8)
        seen = {s.randint_below(5) for _ in range(1000)}
        assert seen == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n", [0, -3])
    def test_randint_below_an_empty_range_is_refused(self, n):
        s = RngStream(8)
        with pytest.raises(ValueError) as exc:
            s.randint_below(n)
        assert str(exc.value) == "n must be positive"
        assert s.draw_count == 0

    def test_categorical_degenerate(self):
        s = RngStream(9)
        assert all(s.categorical([1.0, 0.0]) == 0 for _ in range(100))

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestVectorStreams:
    """The array Philox and seed hash give the scalar stream's own words."""

    KEYS = [0, 1, 2 ** 63, 2 ** 64 - 1] + \
        [int(entry["seed"], 16) for entry in VECTORS["streams"]]

    def test_blocks_equal_stream_words(self):
        keys = np.array(self.KEYS, dtype=np.uint64)
        blocks = [philox_block(keys, b) for b in range(3)]
        for i, key in enumerate(self.KEYS):
            s = RngStream(key)
            want = [s.raw64() for _ in range(12)]
            got = [int(w) for b in blocks for w in b[i]]
            assert got == want, f"key {key:#x}"

    def test_word_blocks_on_demand(self):
        keys = np.array(self.KEYS, dtype=np.uint64)
        words = WordBlocks(keys)
        streams = [RngStream(k) for k in self.KEYS]
        want = [[s.raw64() for _ in range(44)] for s in streams]
        rows = np.arange(len(keys))
        words.retire(rows[:2])
        ahead, behind = rows[2::2], rows[3::2]
        asks = [(ahead, pos) for pos in range(40)]   # blocks 0-5 dropped
        asks += [(behind, 0), (behind, 5), (ahead, 40), (behind, 6)]
        for sub, pos in asks:
            assert words.uniform01(sub, pos).tolist() == \
                [(want[i][pos] >> 11) * 2.0 ** -53 for i in sub]

    def test_first_words_equal_stream_words(self):
        keys = np.array(self.KEYS, dtype=np.uint64)
        for k in (0, 1, 4, 7, 9):
            got = first_words(keys, k)
            assert got.shape == (len(keys), k) and got.dtype == np.uint64
            for i, key in enumerate(self.KEYS):
                s = RngStream(key)
                assert got[i].tolist() == [s.raw64() for _ in range(k)]

    def test_words_continue_the_stream(self):
        # runs of words that end inside, at and past a 256-word buffer,
        # between single draws
        want = RngStream(42)
        want = [want.raw64() for _ in range(1200)]
        s, got = RngStream(42), []
        for n in (3, 0, 1, 252, 5, 600, 1):
            got.extend(s.words(n).tolist())
            got.append(s.raw64())
            assert s.draw_count == len(got)
        assert got == want[:len(got)]

    def test_derived_seeds_equal_scalar(self):
        indices = [0, 1, 7, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                   2 ** 40 + 3]
        for base in (0, -1, 2 ** 64 - 1, 2 ** 64 + 5,
                     *(int(e["base"], 16) for e in VECTORS["derived"])):
            got = derive_seeds(base, np.array(indices, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert got.tolist() == [derive_seed(base, i) for i in indices]


class TestLazyRekey:
    """``rekey`` sets the generator only when a word is first drawn, and
    the words are ``RngStream(seed)``'s all the same."""

    @staticmethod
    def words(seed, n):
        s = RngStream(seed)
        return [s.raw64() for _ in range(n)]

    def test_rekeyed_and_never_drawn_then_rekeyed_and_drawn(self):
        s = RngStream(1)
        s.rekey(2)
        assert s.draw_count == 0 and s.seed == 2
        s.rekey(3)
        assert [s.raw64() for _ in range(300)] == self.words(3, 300)
        assert s.draw_count == 300

    def test_rekeyed_in_the_middle_of_a_buffer(self):
        s = RngStream(4)
        for _ in range(100):
            s.raw64()
        s.rekey(5)
        assert s.draw_count == 0
        assert [s.raw64() for _ in range(10)] == self.words(5, 10)
        assert s.words(260).tolist() == self.words(5, 270)[10:]
        assert s.draw_count == 270

    def test_rekeyed_twice_with_no_draw_between(self):
        s = RngStream(6)
        s.raw64()
        s.rekey(7)
        s.rekey(8)
        assert s.draw_count == 0
        assert s.words(3).tolist() == self.words(8, 3)
        assert s.uniform01() == (self.words(8, 4)[3] >> 11) * 2.0 ** -53
        assert s.draw_count == 4


    def test_the_generator_is_built_at_the_first_draw(self, monkeypatch):
        first, second = self.words(10, 300), self.words(11, 2)
        built = []
        real_philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda **kw: built.append(kw) or real_philox(**kw))
        s = RngStream(9)
        s.rekey(10)
        assert built == []
        assert [s.raw64() for _ in range(300)] == first
        s.rekey(11)   # re-keys the generator it has
        assert s.words(2).tolist() == second
        assert built == [{"key": 10}]


class _FixedWord(RngStream):
    """A stream whose every word is ``word``."""

    def __init__(self, word):
        super().__init__(0)
        self.word = word

    def raw64(self):
        return self.word


PROBS = st.lists(st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 1.0])
                 | st.floats(min_value=0.0, max_value=1.0),
                 min_size=1, max_size=20)


@settings(max_examples=400, deadline=None)
@given(PROBS, st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=0, max_value=20))
def test_searchsorted_picks_what_categorical_picks(weights, word, at):
    # the vectors need not sum to 1, and zeros repeat cumulative values;
    # ``at`` sometimes puts u exactly on a cumulative probability
    probs = np.array(weights)
    total = probs.sum()
    if total > 0:
        probs = probs / total
    cum = np.cumsum(probs)
    if at < len(cum) and cum[at] < 1.0:
        word = int(cum[at] * 2.0 ** 53) << 11
    u = (word >> 11) * 2.0 ** -53
    got = categorical_indices(cum, np.array([u]))
    assert got.tolist() == [_FixedWord(word).categorical(probs)]
