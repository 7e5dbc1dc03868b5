"""Deterministic random streams for the generators.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer): state
advances by the golden-gamma constant and each output is the finalized mix
of the new state.  Streams are split by label, not by call order: the
stream for ``(seed, label)`` starts from ``seed XOR fnv1a64(label)``, so a
generator can draw its edges, homes and lengths from independent streams
and stay reproducible even if the drawing order changes.

All derived draws (integer ranges, Bernoulli trials with rational
probability, shuffles) use exact integer arithmetic on the raw 64-bit
words; no floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 encoding of ``text``, reduced to 64 bits."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Stream:
    """One labeled SplitMix64 substream."""

    def __init__(self, seed: int, label: str = ""):
        self._state = (int(seed) ^ fnv1a64(label)) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randrange(hi - lo + 1)

    def bernoulli(self, prob: Fraction) -> bool:
        """True with probability ``prob``; exact for dyadic probabilities."""
        if type(prob) is not Fraction:
            prob = Fraction(prob)
        num, den = prob.numerator, prob.denominator
        if not 0 <= num <= den:
            raise ValueError(f"probability {prob} outside [0, 1]")
        return self.next_u64() * den < num << 64

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the same list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items
