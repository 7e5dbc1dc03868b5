"""Deterministic random streams for the generators.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer): state
advances by the golden-gamma constant and each output is the finalized mix
of the new state.  Streams are split by label, not by call order: the
stream for ``(seed, label)`` starts from ``seed XOR fnv1a64(label)``, so a
generator can draw its edges, homes and lengths from independent streams
and stay reproducible even if the drawing order changes.

Draws come in blocks: :meth:`Stream.words` returns the next ``count``
words in one local loop, or, for a long block, runs each step of that loop
once over all its words packed into one big integer.  The bounded-integer
and Bernoulli draws map a block of words at once, so a block of ``count``
draws equals ``count`` blocks of one draw and leaves the stream in the
same state.  A block whose every draw maps to the same value (a one-value
range, probability 0 or 1) only advances the state and computes no word.

All derived draws (integer ranges, Bernoulli trials with rational
probability, shuffles) use exact integer arithmetic on the raw 64-bit
words; no floating point is involved anywhere.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from .model import _INT, _Memo, _check_types, as_fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# from this many words on, one pass over 128-bit lanes of a big integer
# beats the per-word loop (the two cross at 12 to 16 words, CPython 3.11)
_LANES_FROM = 16


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 encoding of ``text``, reduced to 64 bits."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


# the package draws from a handful of labels; the bound keeps a caller's
# arbitrary labels from growing memory
_label_hash = _Memo(fnv1a64, 32)


class Stream:
    """One labeled SplitMix64 substream."""

    def __init__(self, seed: int, label: str = ""):
        _check_types(_INT, "seed", (seed,))
        if not isinstance(label, str):
            raise TypeError(f"label {label!r} is not a str")
        self._state = (seed ^ _label_hash[label]) & _MASK64

    def words(self, count: int) -> list:
        """The next ``count`` 64-bit outputs, in order."""
        if count >= _LANES_FROM:
            return self._lane_words(count)
        z = self._state
        out = []
        append = out.append
        for _ in range(count):
            z = (z + _GAMMA) & _MASK64
            x = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
            append(x ^ (x >> 31))
        self._state = z
        return out

    def _lane_words(self, count: int) -> list:
        # the loop's steps on all words at once: word k sits in the low half
        # of 128-bit lane k of one integer, wide enough that no product
        # carries into the next lane, and the mask clears what a shift
        # brings in from the next lane; explicit little-endian bytes keep
        # the lanes the same on every platform
        lanes = struct.Struct("<" + "Q8x" * count)
        mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little")
        ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        steps = int.from_bytes(lanes.pack(*range(1, count + 1)), "little")
        z = (self._state * ones + _GAMMA * steps) & mask
        z = (z ^ (z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31 & mask
        self._skip(count)
        return list(lanes.unpack(z.to_bytes(16 * count, "little")))

    def _skip(self, count: int) -> None:
        self._state = (self._state + max(count, 0) * _GAMMA) & _MASK64

    def randints(self, lo: int, hi: int, count: int) -> list:
        """``count`` integers in the inclusive range [lo, hi], each by the
        multiply-shift reduction of one word."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            self._skip(count)
            return [lo] * count
        return [lo + (w * span >> 64) for w in self.words(count)]

    def bernoullis(self, prob: int | Fraction, count: int) -> list:
        """``count`` trials, each true with probability ``prob``; exact for
        dyadic probabilities."""
        num, den = as_fraction(prob, "probability").as_integer_ratio()
        if not 0 <= num <= den:
            raise ValueError(f"probability {prob} outside [0, 1]")
        if num == 0 or num == den:
            self._skip(count)
            return [num == den] * count
        limit = num << 64
        return [w * den < limit for w in self.words(count)]

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the same list."""
        for i, w in zip(range(len(items) - 1, 0, -1), self.words(len(items) - 1)):
            j = (w * (i + 1)) >> 64
            items[i], items[j] = items[j], items[i]
        return items
