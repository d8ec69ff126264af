"""FingerprintPool: ordered inline hashing and stats."""

import hashlib

from repro.fingerprint import FingerprintPool, fingerprint


def payloads(n, size=3000):
    return [bytes([i % 256]) * size for i in range(n)]


def test_results_match_serial_hashing():
    data = payloads(23)
    pool = FingerprintPool()
    assert pool.submit_many(data) == [hashlib.sha1(d).hexdigest() for d in data]


def test_results_ordered_per_submission():
    """Digests come back in submission order, batch after batch."""
    data = payloads(40, size=100)
    pool = FingerprintPool()
    for _ in range(3):
        assert pool.submit_many(data) == [fingerprint(d) for d in data]


def test_inline_when_workers_is_one():
    """Hashing runs on the calling thread: no helper thread is started."""
    pool = FingerprintPool()
    assert pool.workers == 1
    (digest,) = pool.submit_many(iter([b"abc"]))  # any iterable, even one-shot
    assert digest == hashlib.sha1(b"abc").hexdigest()
    pool.shutdown()  # a no-op kept for callers that release resources


def test_stats_accounting():
    pool = FingerprintPool()
    pool.submit_many(payloads(6))
    assert pool.stats.tasks == 6
    assert pool.stats.busy_seconds > 0.0
    assert pool.stats.wall_seconds >= pool.stats.busy_seconds
    pool.submit_many(payloads(2))
    assert pool.stats.tasks == 8


def test_algorithm_override():
    pool = FingerprintPool(algorithm="sha1")
    assert pool.submit_many([b"payload"], algorithm="sha256") == [
        hashlib.sha256(b"payload").hexdigest()
    ]
    assert pool.submit_many([b"payload"]) == [hashlib.sha1(b"payload").hexdigest()]


def test_empty_batch():
    pool = FingerprintPool()
    assert pool.submit_many([]) == []
    assert pool.stats.tasks == 0
