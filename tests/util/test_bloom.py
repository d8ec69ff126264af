"""Tests for the Bloom filter."""

import pytest

from repro.util import BloomFilter


def test_no_false_negatives():
    bf = BloomFilter(capacity=1000)
    items = [f"obj{i}" for i in range(1000)]
    for item in items:
        bf.add(item)
    assert all(item in bf for item in items)


def test_false_positive_rate_bounded():
    bf = BloomFilter(capacity=1000, error_rate=0.01)
    for i in range(1000):
        bf.add(f"obj{i}")
    false_positives = sum(1 for i in range(10_000) if f"other{i}" in bf)
    assert false_positives / 10_000 < 0.05


def test_empty_filter_contains_nothing():
    bf = BloomFilter(capacity=100)
    assert "anything" not in bf


def test_memory_scales_with_capacity():
    small = BloomFilter(capacity=100)
    large = BloomFilter(capacity=10_000)
    assert large.memory_bytes() > small.memory_bytes()


def test_invalid_params():
    with pytest.raises(ValueError):
        BloomFilter(capacity=0)
    with pytest.raises(ValueError):
        BloomFilter(capacity=10, error_rate=1.5)


def test_bits_follow_double_hashing_formula():
    """The bit layout is pinned: probe i of x is h1 + i*h2 mod m."""
    from repro.sim.rng import derive_seed

    bf = BloomFilter(capacity=500, error_rate=0.01)
    expected = bytearray(len(bf._bits))
    for i in range(300):
        item = f"chunk-{i}"
        bf.add(item)
        h1, h2 = derive_seed(0, item), derive_seed(1, item) | 1
        for j in range(bf.num_hashes):
            bit = (h1 + j * h2) % bf.num_bits
            expected[bit >> 3] |= 1 << (bit & 7)
    assert bf._bits == expected


def test_has_probes_agrees_with_contains():
    bf = BloomFilter(capacity=200)
    twin = BloomFilter(capacity=200)
    for i in range(150):
        bf.add(f"in-{i}")
    for item in [f"in-{i}" for i in range(150)] + [f"out-{i}" for i in range(500)]:
        probes = twin.probes(item)  # equal geometry -> equal probes
        assert bf.has_probes(probes) == (item in bf)
