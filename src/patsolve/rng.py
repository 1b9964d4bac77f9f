"""Deterministic 64-bit random number generation.

Every randomized component of this package (pattern sampling, search
tie-breaking) draws from SplitMix64 rather than the stdlib Mersenne
Twister.  SplitMix64 is a tiny, well-known mixer (Steele, Lea and
Flood's splittable generator) whose entire state is one 64-bit word, so
an independent reimplementation fed the same seed produces the same
stream, bit for bit.  That property is what makes seeded runs
comparable across implementations and languages.

Output i of the stream (counting from 1) is ``mix((seed + i*GAMMA) mod
2^64)``: a pure function of its index, with no dependence on the outputs
before it.  So the generator computes a block of ``_BLOCK`` outputs at
once, which is the same stream in the same order, only cheaper per draw
than one word at a time in Python.  The block's states sit in 128-bit
lanes of one integer, lane j holding ``seed + (j+1)*GAMMA``; the three
mixing steps then run on the whole integer.  Each right shift is masked
back to the low 64 bits of every lane, so no lane's bits leak into its
neighbour, and a lane's 64 x 64-bit product fits in its 128 bits, so the
multiplies never carry across lanes either.  The lanes are unpacked
big-endian, which lists them highest first, and ``pop`` takes them from
the end of that list, in stream order.
"""

from __future__ import annotations

import struct

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64
# For n <= 2^32 the rejection limit 2^64 - (2^64 mod n) is above this, so
# a draw below it is accepted without computing the limit.
_SAFE = _TWO64 - (1 << 32)

_BLOCK = 64
_ONES = sum(1 << (128 * j) for j in range(_BLOCK))
_LANES = _MASK * _ONES
_STEPS = sum((((j + 1) * _GAMMA) & _MASK) << (128 * j) for j in range(_BLOCK))
_BLOCK_GAMMA = (_BLOCK * _GAMMA) & _MASK
_BYTES = 16 * _BLOCK
_UNPACK = struct.Struct(">" + "8xQ" * _BLOCK).unpack


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary integer (taken mod 2^64)."""

    __slots__ = ("_state", "_buf")

    def __init__(self, seed: int):
        # the state after the outputs computed so far; _buf holds those
        # not yet drawn, the next one last
        self._state = seed & _MASK
        self._buf: list[int] = []

    def _fill(self) -> None:
        """Append the next _BLOCK outputs to the (empty) buffer."""
        s = self._state
        self._state = (s + _BLOCK_GAMMA) & _MASK
        z = (s * _ONES + _STEPS) & _LANES
        z = ((z ^ ((z >> 30) & _LANES)) * 0xBF58476D1CE4E5B9) & _LANES
        z = ((z ^ ((z >> 27) & _LANES)) * 0x94D049BB133111EB) & _LANES
        z ^= (z >> 31) & _LANES
        self._buf.extend(_UNPACK(z.to_bytes(_BYTES, "big")))

    def next_u64(self) -> int:
        """Next raw 64-bit word of the stream."""
        buf = self._buf
        if not buf:
            self._fill()
        return buf.pop()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), for 0 < n <= 2^64, by rejection so
        there is no modulo bias."""
        if n > 1 << 32:
            if n > _TWO64:
                raise ValueError("randrange bound above 2^64")
            # largest multiple of n that fits in 64 bits
            limit = _TWO64 - _TWO64 % n
        elif n > 0:
            limit = _SAFE
        else:
            raise ValueError("randrange needs a positive bound")
        buf = self._buf
        while True:
            if not buf:
                self._fill()
            u = buf.pop()
            # a draw at or above _SAFE gets the exact limit
            if u < limit or u < _TWO64 - _TWO64 % n:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, drawing as ``randrange(i + 1)``
        does for i from the last index down to 1."""
        buf = self._buf
        i = len(items) - 1
        safe = _SAFE if i < 1 << 32 else 0
        while i > 0:
            if not buf:
                self._fill()
            u = buf.pop()
            n = i + 1
            if u < safe or u < _TWO64 - _TWO64 % n:
                j = u % n
                items[i], items[j] = items[j], items[i]
                i -= 1

    def choice(self, items):
        if not items:
            raise ValueError("choice from empty sequence")
        return items[self.randrange(len(items))]
