"""Deterministic, platform-independent random streams.

Streams are Philox counter-based generators; the mapping from raw 64-bit
words to uniforms and normals is fixed here (not delegated to numpy's
Generator methods) so that a seed produces bit-identical draw sequences
everywhere. The committed fixture ``tests/fixtures/rng_vectors.json`` pins
the word stream and the seed-derivation hash.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BUFFER_WORDS = 256


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


class RngStream:
    """Seeded random stream with an explicit draw counter.

    ``draw_count`` counts consumed 64-bit words. Uniforms take one word;
    normals take two (Box-Muller, cosine branch only).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._bitgen = np.random.Philox(key=self.seed)
        self.draw_count = 0
        self._buffer: np.ndarray | None = None
        self._buffer_pos = 0
        self._fresh_state: dict | None = None

    def rekey(self, seed: int) -> None:
        """Restart as the stream ``RngStream(seed)`` would be, without
        building a new generator: key ``[seed, 0]``, counter 0, empty
        buffer, ``draw_count`` 0."""
        self.seed = int(seed) & _MASK64
        if self._fresh_state is None:
            self._fresh_state = np.random.Philox(key=0).state
        self._fresh_state["state"]["key"][0] = self.seed
        self._bitgen.state = self._fresh_state
        self.draw_count = 0
        self._buffer = None
        self._buffer_pos = 0

    def raw64(self) -> int:
        """Next raw 64-bit word of the stream."""
        if self._buffer is None or self._buffer_pos >= len(self._buffer):
            self._buffer = self._bitgen.random_raw(_BUFFER_WORDS)
            self._buffer_pos = 0
        word = int(self._buffer[self._buffer_pos])
        self._buffer_pos += 1
        self.draw_count += 1
        return word

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
        ``labels`` is the ``RandomSource`` signature; a stream ignores it."""
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
