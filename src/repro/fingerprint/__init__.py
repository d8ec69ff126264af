"""Fingerprinting and the baseline fingerprint index."""

from .fingerprint import FINGERPRINT_ALGORITHMS, fingerprint, fingerprint_size
from .index import FingerprintIndex, IndexStats
from .pool import FingerprintPool, PoolStats

__all__ = [
    "fingerprint",
    "fingerprint_size",
    "FINGERPRINT_ALGORITHMS",
    "FingerprintIndex",
    "IndexStats",
    "FingerprintPool",
    "PoolStats",
]
