"""Deterministic seeded random stream (splitmix64).

The generator is fixed by specification of its byte-level algorithm so that
seeded runs are reproducible across Python versions and across independent
reimplementations in other languages. All randomized constructions in the
toolkit (instance generation, test sampling) draw from this stream.

Reference algorithm: Steele, Lea & Flood's splitmix64 finalizer, the common
public-domain constants.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit deterministic stream; next_below(n) maps it to [0, n)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_below(self, n: int) -> int:
        """Uniform-enough draw in [0, n) for small n (modulo reduction).

        For n ≤ 2^16 the bias is below 2^-48; determinism, not perfect
        uniformity, is the contract here.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_tagged(self, tag: int) -> int:
        """A 64-bit value determined by (current state, tag) without advancing self."""
        probe = SplitMix64((self._state ^ (tag * 0xD1342543DE82EF95)) & _MASK64)
        return probe.next_u64()
