"""Deterministic pseudo-random streams for the training kernel and the API.

The generator is xorshift128 (Marsaglia 2003) over four 32-bit words. Words
are kept in an int64 array and every operation masks back to 32 bits, so the
arithmetic is exact and the same on every platform. Streams are derived
from a (seed, stream) pair with a murmur-style finalizer, which keeps runs
independent without any global state. The step itself is `xs128_word`, a
pure function of two words; `xs128_next` applies it to a state array. The
training loop (`_kernel.c`) takes the same step on four 32-bit words it
holds in locals, starting from `state_from`.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_INV_2_32 = 2.0 ** -32


def fmix32(h):
    """murmur3 32-bit finalizer; bijective avalanche over [0, 2**32)."""
    h = int(h) & _MASK32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def state_from(seed, stream=0):
    """Build an xorshift128 state array from a seed and a stream index.

    Distinct (seed, stream) pairs give independent trajectories; the same
    pair always yields the same state. Negative inputs are rejected so that
    serialized configs round-trip without sign surprises.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    s_lo = seed & _MASK32
    s_hi = (seed >> 32) & _MASK32
    t = stream & _MASK32
    state = np.zeros(4, dtype=np.int64)
    state[0] = fmix32(s_lo ^ 0x9E3779B9)
    state[1] = fmix32(s_hi ^ 0x85EBCA77)
    state[2] = fmix32(t ^ 0xC2B2AE3D)
    state[3] = fmix32((s_lo ^ (t << 1)) + 0x27D4EB2F)
    if state[0] == 0 and state[1] == 0 and state[2] == 0 and state[3] == 0:
        state[3] = 0x6D2B79F5  # xorshift128 must not start at the zero state
    return state


def xs128_word(x, w):
    """The word after (x, ., ., w), in [0, 2**32).

    x is the oldest of the four state words and w the newest; the step
    shifts the state one word along and appends the result, so a caller
    holding the words (r0, r1, r2, r3) advances with
    `r0, r1, r2, r3 = r1, r2, r3, xs128_word(r0, r3)`.
    """
    t = (x ^ (x << 11)) & _MASK32
    return ((w ^ (w >> 19)) ^ (t ^ (t >> 8))) & _MASK32


def xs128_next(state):
    """Advance the state in place and return the next word in [0, 2**32)."""
    w = xs128_word(state[0], state[3])
    state[0] = state[1]
    state[1] = state[2]
    state[2] = state[3]
    state[3] = w
    return state[3]


class RandomState:
    """Convenience wrapper around a raw state array."""

    def __init__(self, seed, stream=0):
        self.state = state_from(seed, stream)

    def next_u32(self):
        return int(xs128_next(self.state))

    def uniform(self):
        """Next float in [0, 1) with 32 bits of resolution."""
        return xs128_next(self.state) * _INV_2_32

    def randint(self, n):
        """Next integer in [0, n). Consumes exactly one word."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.uniform() * n)

    def choice(self, items):
        return items[self.randint(len(items))]
