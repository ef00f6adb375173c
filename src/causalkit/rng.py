"""Deterministic, platform-independent random streams.

Streams are Philox counter-based generators; the mapping from raw 64-bit
words to uniforms and normals is fixed here (not delegated to numpy's
Generator methods) so that a seed produces bit-identical draw sequences
everywhere. The committed fixture ``tests/fixtures/rng_vectors.json`` pins
the word stream and the seed-derivation hash.

``derive_seeds`` and ``WordBlocks`` compute the same seeds and words for
many trials at once with numpy array arithmetic (Philox is counter-based,
so any block of any stream can be computed directly: Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BUFFER_WORDS = 256
_MASK32 = np.uint64(0xFFFFFFFF)
_KEPT_BLOCKS = 4   # WordBlocks holds at most this many blocks per key
_NO_WORDS = np.empty(0, dtype=np.uint64)   # the buffer of a fresh stream


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer; a stable 64-bit mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-trial seed: hash of (base seed, trial index).

    Used for ensemble runs and analyzer sampling so trials are independent
    but fully reproducible from the base seed.
    """
    return splitmix64((int(base_seed) ^ ((index + 1) * _GOLDEN)) & _MASK64)


def derive_seeds(base_seed: int, indices) -> np.ndarray:
    """``derive_seed(base_seed, i)`` for every i of ``indices``, as uint64
    (array products wrap modulo 2^64, as the scalar hash masks them)."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    z = np.uint64(int(base_seed) & _MASK64) ^ (
        (idx + np.uint64(1)) * np.uint64(_GOLDEN))
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


# The two Philox multipliers as a column, so that one array product
# serves both lanes of a round.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                     dtype=np.uint64)
_M_LO, _M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32


def _mulhilo(x: np.ndarray):
    """High and low words of the 128-bit products ``_PHILOX_M * x``, from
    32-bit limbs (uint64 array products wrap, so the low word is the plain
    product)."""
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_hi * _M_LO
    t += (x_lo * _M_LO) >> 32
    w = x_lo * _M_HI
    w += t & _MASK32
    hi = x_hi * _M_HI
    hi += t >> 32
    hi += w >> 32
    return hi, x * _PHILOX_M


def philox_block(keys: np.ndarray, block: int) -> np.ndarray:
    """Words ``4*block`` to ``4*block + 3`` of ``RngStream(key)`` for every
    uint64 key, one row per key: Philox4x64-10 with key [key, 0] on the
    counter [block + 1, 0, 0, 0] (numpy's Philox steps its counter before
    each block)."""
    n = len(keys)
    # lanes: x holds counter words 0 and 2, y words 1 and 3
    x = np.zeros((2, n), dtype=np.uint64)
    x[0] = block + 1
    y = np.zeros((2, n), dtype=np.uint64)
    key = np.zeros((2, n), dtype=np.uint64)
    key[0] = keys
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(x)
        # c0 = hi1 ^ c1 ^ k0, c2 = hi0 ^ c3 ^ k1; c1 = lo1, c3 = lo0
        x = hi[::-1]
        x ^= y
        x ^= key
        y = lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=1)


def first_words(keys: np.ndarray, k: int) -> np.ndarray:
    """Words 0 to k - 1 of ``RngStream(key)`` for every uint64 key, one
    row per key."""
    blocks = [philox_block(keys, b) for b in range(-(-k // 4))]
    return np.hstack([np.empty((len(keys), 0), np.uint64), *blocks])[:, :k]


class WordBlocks:
    """The word streams of many keys at once: word ``pos`` of
    ``RngStream(keys[i])`` for chosen rows i, where each row asks for its
    words in order. A 4-word block is computed the first time any row asks
    for one of its words, for every row not yet retired, and kept while it
    is one of the newest ``_KEPT_BLOCKS``; a row that lags further behind
    gets its older block computed again."""

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.drawing = np.ones(len(keys), dtype=bool)
        self._blocks: dict = {}   # block -> words, one row per key
        self._newest = -1

    def retire(self, rows) -> None:
        """Rows that will ask for no more words."""
        self.drawing[rows] = False

    def uniform01(self, rows: np.ndarray, pos: int) -> np.ndarray:
        """``RngStream.uniform01`` of word ``pos`` for each row."""
        block, word = divmod(pos, 4)
        words = self._blocks.get(block)
        if words is None and block <= self._newest:   # dropped
            words = philox_block(self.keys[rows], block)
            rows = slice(None)
        elif words is None:
            drawing = np.flatnonzero(self.drawing)
            words = self._blocks[block] = np.empty((len(self.keys), 4),
                                                   dtype=np.uint64)
            words[drawing] = philox_block(self.keys[drawing], block)
            self._newest = block
            self._blocks.pop(block - _KEPT_BLOCKS, None)
        return (words[rows, word] >> 11) * 2.0**-53


def categorical_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``RngStream.categorical`` for many uniforms at once, given the
    cumulative sum of its probability vector: the first index whose
    cumulative probability exceeds u, or the last index."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


class RngStream:
    """Seeded random stream with an explicit draw counter.

    ``draw_count`` counts consumed 64-bit words. Uniforms take one word;
    normals take two (Box-Muller, cosine branch only).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._bitgen = None   # built at the first refill
        self._keyed = False   # the generator holds ``seed``'s stream
        self.draw_count = 0
        self._buffer = _NO_WORDS
        self._buffer_pos = 0
        self._fresh_state: dict | None = None   # a counter-0 state

    def rekey(self, seed: int) -> None:
        """Restart as the stream ``RngStream(seed)`` would be, without
        building a new generator: key ``[seed, 0]``, counter 0, empty
        buffer, ``draw_count`` 0. The generator is set to the new key
        only when a word is first drawn, so a stream re-keyed and never
        drawn from costs no numpy call."""
        self.seed = int(seed) & _MASK64
        self._keyed = False
        self.draw_count = 0
        self._buffer = _NO_WORDS
        self._buffer_pos = 0

    def _refill(self, n: int) -> None:
        """Replace the buffer with the next ``n`` words of the stream."""
        if self._bitgen is None:
            self._bitgen = np.random.Philox(key=self.seed)
            self._fresh_state = self._bitgen.state
        elif not self._keyed:
            self._fresh_state["state"]["key"][0] = self.seed
            self._bitgen.state = self._fresh_state
        self._keyed = True
        self._buffer = self._bitgen.random_raw(n)
        self._buffer_pos = 0

    def raw64(self) -> int:
        """Next raw 64-bit word of the stream."""
        if self._buffer_pos >= len(self._buffer):
            self._refill(_BUFFER_WORDS)
        word = int(self._buffer[self._buffer_pos])
        self._buffer_pos += 1
        self.draw_count += 1
        return word

    def words(self, n: int) -> np.ndarray:
        """The next ``n`` raw words of the stream, as uint64."""
        pos = self._buffer_pos
        head = self._buffer[pos:pos + n]
        if len(head) == n:
            self._buffer_pos += n
        else:
            rest = n - len(head)
            self._refill(max(rest, _BUFFER_WORDS))
            head = np.concatenate([head, self._buffer[:rest]])
            self._buffer_pos = rest
        self.draw_count += n
        return head

    def uniform01(self) -> float:
        """Uniform double in [0, 1), 53-bit resolution."""
        return (self.raw64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform01()

    def normal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """Normal draw via Box-Muller; consumes exactly two words."""
        u1 = ((self.raw64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = (self.raw64() >> 11) * 2.0**-53
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + sigma * z

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return min(int(self.uniform01() * n), n - 1)

    def categorical(self, probs, labels=None) -> int:
        """Index drawn from a probability vector (assumed to sum to 1).
        ``labels`` names outcomes for ``interpreter.ReplaySource``, which
        records them as branch labels; a stream ignores it."""
        u = self.uniform01()
        if len(probs) > 8:
            cum = np.cumsum(probs)
            return min(int(np.searchsorted(cum, u, side="right")),
                       len(probs) - 1)
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                return i
        return len(probs) - 1
