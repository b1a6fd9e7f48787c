"""Deterministic 64-bit random number generator.

Every seeded operation in the package draws from this one generator, so a
seed fully determines behaviour across platforms and Python versions.  The
recurrence is splitmix64:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z xor (z >> 31)

Integers below a bound are taken by modulo reduction; the resulting bias is
at most n / 2^64 and is irrelevant at the scales used here.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream seeded from a single 64-bit integer."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self) -> "SplitMix64":
        """Child stream, seeded by this stream's next output."""
        return SplitMix64(self.next_u64())
