"""A counting-free Bloom filter.

The paper's cache manager persists its HitSets to storage and keeps an
in-memory Bloom filter for existence checks (§5, "Cache management").
This is that filter: ``k`` hash probes into an ``m``-bit array derived
from the target capacity and false-positive rate.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..sim.rng import derive_seed

__all__ = ["BloomFilter"]


class BloomFilter:
    """Standard Bloom filter with double hashing for the k probes."""

    def __init__(self, capacity: int, error_rate: float = 0.01) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not (0.0 < error_rate < 1.0):
            raise ValueError(f"error_rate must be in (0, 1), got {error_rate}")
        self.capacity = capacity
        self.error_rate = error_rate
        self.num_bits = max(8, int(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        self.num_hashes = max(1, round(self.num_bits / capacity * math.log(2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.count = 0

    def probes(self, item: str) -> List[int]:
        """The ``num_hashes`` bit positions of ``item`` in this filter.

        Filters with equal ``num_bits`` and ``num_hashes`` give equal
        probes, so one derivation can be tested against all of them
        with :meth:`has_probes`.
        """
        h1 = derive_seed(0, item)
        h2 = derive_seed(1, item) | 1
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, item: str) -> None:
        """Insert ``item``."""
        for bit in self.probes(item):
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def has_probes(self, probes: Sequence[int]) -> bool:
        """Whether every bit in ``probes`` (from :meth:`probes`) is set."""
        bits = self._bits
        return all(bits[bit >> 3] & (1 << (bit & 7)) for bit in probes)

    def __contains__(self, item: str) -> bool:
        return self.has_probes(self.probes(item))

    def memory_bytes(self) -> int:
        """RAM footprint of the bit array."""
        return len(self._bits)
