"""Counter-based deterministic PRNG for reproducible instance generation.

The stream is the SplitMix64 output function applied to
(seed + counter * GOLDEN) mod 2^64 — a pure function of (seed, counter), so
any implementation in any language reproduces the same corpus byte for byte.
"""

from __future__ import annotations

from .errors import InvalidParams

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea, Flood 2014)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SeededStream:
    """64-bit words word(i) = splitmix64(seed + (i+1) * GOLDEN)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK
        self._counter = 0

    def word(self, index: int) -> int:
        return splitmix64((self.seed + (index + 1) * _GOLDEN) & _MASK)

    def next_word(self) -> int:
        w = self.word(self._counter)
        self._counter += 1
        return w

    def next_bits(self, bits: int) -> int:
        """Uniform integer in [0, 2^bits) assembled from whole words."""
        out = 0
        remaining = bits
        while remaining > 0:
            take = min(64, remaining)
            out = (out << take) | (self.next_word() >> (64 - take))
            remaining -= take
        return out

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection on the covering power of two."""
        if hi < lo:
            raise InvalidParams(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        bits = (span - 1).bit_length() if span > 1 else 1
        while True:
            v = self.next_bits(bits)
            if v < span:
                return lo + v
