"""Seeded randomness.

Every randomized construction in the package draws from this splitmix64
stream so that fixtures are reproducible bit-for-bit across platforms and
Python versions (the stdlib random module makes weaker guarantees).
"""

_MASK = (1 << 64) - 1


class SplitMix:
    """splitmix64 generator; seed is an explicit parameter, never ambient."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform integer in [0, k)."""
        if k <= 0:
            raise ValueError("below() needs a positive bound")
        return (self.next_u64() * k) >> 64

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.below(den) < num
