"""Tests for the pluggable cache eviction policies (lru/lfu/fifo)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage
from repro.core.cache import CacheManager
from repro.sim import Simulator


def manager(policy, capacity=1000):
    config = DedupConfig(cache_policy=policy, cache_capacity_bytes=capacity)
    return CacheManager(Simulator(), config)


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        DedupConfig(cache_policy="clock")


def test_lru_evicts_least_recently_used():
    mgr = manager("lru")
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    mgr.record_access("a")  # a becomes MRU
    assert mgr.victims() == [("b", 0)]


def test_fifo_ignores_recency():
    mgr = manager("fifo")
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    mgr.record_access("a")  # does not save a under FIFO
    assert mgr.victims() == [("a", 0)]


def test_lfu_evicts_least_frequent():
    mgr = manager("lfu")
    mgr.note_cached("a", 0, 600)
    mgr.note_cached("b", 0, 600)
    for _ in range(5):
        mgr.record_access("b")
    mgr.record_access("a")
    assert mgr.victims() == [("a", 0)]


def test_lfu_frequency_reset_on_eviction():
    mgr = manager("lfu", capacity=10_000)
    mgr.note_cached("a", 0, 100)
    for _ in range(9):
        mgr.record_access("a")
    mgr.note_evicted("a", 0)
    mgr.note_cached("a", 0, 100)  # re-promoted: old frequency forgotten
    mgr.note_cached("b", 0, 100)
    mgr.record_access("b")
    mgr.config.cache_capacity_bytes = 100
    assert mgr.victims()[0] == ("a", 0)


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
def test_end_to_end_capacity_respected(policy):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster,
        DedupConfig(
            chunk_size=1024,
            cache_policy=policy,
            cache_capacity_bytes=2048,
            hit_count_threshold=1,
            hitset_period=100.0,
        ),
        start_engine=False,
    )
    for i in range(6):
        storage.write_sync(f"obj{i}", bytes([i]) * 1024)
    storage.drain()
    assert storage.tier.cache.cached_bytes <= 2048
    for i in range(6):
        assert storage.read_sync(f"obj{i}") == bytes([i]) * 1024


def test_cache_hit_counters():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    storage = DedupedStorage(
        cluster, DedupConfig(chunk_size=1024), start_engine=False
    )
    storage.write_sync("obj1", b"h" * 1024)
    storage.read_sync("obj1")  # cached (not yet flushed)
    assert storage.tier.cache_hits == 1
    assert storage.tier.cache_misses == 0
    storage.drain()  # cold -> evicted
    storage.read_sync("obj1")  # now redirected
    assert storage.tier.cache_misses == 1


# -- per-object index vs the full-queue scan it replaced ----------------------


class FullScanModel:
    """Reference model: the cache manager before the per-oid index.

    ``record_access`` scans the whole queue for the object's keys.
    """

    def __init__(self, policy, capacity):
        self.policy = policy
        self.capacity = capacity
        self.cached = OrderedDict()
        self.freq = {}
        self.cached_bytes = 0
        self.promotions = 0
        self.demotions = 0

    def record_access(self, oid):
        for k in [k for k in self.cached if k[0] == oid]:
            self.freq[k] = self.freq.get(k, 0) + 1
            if self.policy == "lru":
                self.cached.move_to_end(k)

    def note_cached(self, oid, index, nbytes):
        key = (oid, index)
        old = self.cached.pop(key, 0)
        self.cached_bytes += nbytes - old
        self.cached[key] = nbytes
        self.freq[key] = self.freq.get(key, 0) + 1
        self.promotions += old == 0

    def note_evicted(self, oid, index):
        old = self.cached.pop((oid, index), 0)
        self.freq.pop((oid, index), None)
        if old:
            self.cached_bytes -= old
            self.demotions += 1

    def victims(self):
        if self.policy == "lfu":
            candidates = sorted(
                self.cached.items(), key=lambda kv: self.freq.get(kv[0], 0)
            )
        else:
            candidates = list(self.cached.items())
        out, excess = [], self.cached_bytes - self.capacity
        for key, nbytes in candidates:
            if excess <= 0:
                break
            out.append(key)
            excess -= nbytes
        return out


_OIDS = st.sampled_from(["a", "b", "c"])
_INDEX = st.integers(0, 3)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("cache"), _OIDS, _INDEX, st.integers(0, 400)),
        st.tuples(st.just("evict"), _OIDS, _INDEX),
        st.tuples(st.just("access"), _OIDS),
    ),
    max_size=60,
)


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_per_oid_index_matches_full_scan(policy, ops):
    mgr = manager(policy, capacity=500)
    ref = FullScanModel(policy, capacity=500)
    for op, *args in ops:
        name = {"cache": "note_cached", "evict": "note_evicted"}.get(
            op, "record_access"
        )
        getattr(mgr, name)(*args)
        getattr(ref, name)(*args)
        assert mgr.victims() == ref.victims()
        assert list(mgr._cached.items()) == list(ref.cached.items())
        assert mgr._freq == ref.freq
        assert (mgr.cached_bytes, mgr.promotions, mgr.demotions) == (
            ref.cached_bytes,
            ref.promotions,
            ref.demotions,
        )
    # The index holds exactly the queue's keys, per oid, in queue order.
    for oid, keys in mgr._by_oid.items():
        assert list(keys) == [k for k in mgr._cached if k[0] == oid] != []
    assert sum(len(keys) for keys in mgr._by_oid.values()) == len(mgr._cached)


class _CountingQueue(OrderedDict):
    """An LRU queue that counts full iterations over itself."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
def test_record_access_never_iterates_the_global_queue(policy):
    mgr = manager(policy, capacity=None)
    for i in range(200):
        mgr.note_cached(f"obj{i}", 0, 64)
        mgr.note_cached(f"obj{i}", 1, 64)
    mgr._cached = _CountingQueue(mgr._cached)
    mgr._cached.iterations = 0
    for i in range(0, 400, 3):
        mgr.record_access(f"obj{i}")  # half of these oids are not cached
    assert mgr._cached.iterations == 0
    assert mgr._freq[("obj3", 1)] == 2
    if policy == "lru":
        assert list(mgr._cached)[-2:] == [("obj198", 0), ("obj198", 1)]
