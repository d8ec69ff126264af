"""Chunk data cache: admission policy, budget accounting, and the
GC / recovery / rebalance interactions that evict entries.

The cache is content-addressed, so a resident payload is never
byte-stale; these tests pin down the two things that *can* go wrong:
admission/eviction accounting drifting from the actual resident bytes,
and reclaimed chunks lingering in (or being served from) the cache
after scrub GC, deletes, recovery, or rebalance rewrote the pool.
"""

import pytest

from repro.cluster import RadosCluster, rebalance_sync, recover_sync
from repro.core import DedupConfig, DedupedStorage, collect_garbage_sync
from repro.core.read_cache import ChunkDataCache
from repro.perf.stages import StageCounters

CHUNK = 1024


def make_storage(**config_overrides):
    # cache_on_flush=False keeps flushed payloads out of the foreground
    # object cache so reads actually traverse the chunk pool (and the
    # data cache in front of it).
    defaults = dict(chunk_size=CHUNK, dedup_interval=0.01, cache_on_flush=False)
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


def resident_bytes(cache: ChunkDataCache) -> int:
    return sum(len(data) for data in cache._data.values())


# -- unit: admission and accounting ------------------------------------------


def test_two_hit_admission_requires_a_ghost_sighting():
    cache = ChunkDataCache(8 * CHUNK, StageCounters())
    assert cache.enabled
    assert cache.get("fp1") is None
    # First sighting: not admissible yet, lands on the ghost list.
    assert not cache.should_admit("fp1", CHUNK)
    cache.note_seen("fp1")
    # Second sighting while remembered: admissible.
    assert cache.should_admit("fp1", CHUNK)
    cache.admit("fp1", b"x" * CHUNK)
    assert cache.get("fp1") == b"x" * CHUNK
    assert cache.stage.chunk_cache_admissions == 1
    # Resident entries are never re-admitted.
    assert not cache.should_admit("fp1", CHUNK)


def test_ghost_list_is_bounded_fifo():
    cache = ChunkDataCache(8 * CHUNK, StageCounters(), ghost_entries=2)
    cache.note_seen("a")
    cache.note_seen("b")
    cache.note_seen("c")  # evicts "a" from the ghost list
    assert not cache.should_admit("a", CHUNK)
    assert cache.should_admit("b", CHUNK)
    assert cache.should_admit("c", CHUNK)


def test_budget_eviction_is_lru_and_accounted():
    stage = StageCounters()
    cache = ChunkDataCache(3 * CHUNK, stage)
    for fp in ("a", "b", "c"):
        cache.note_seen(fp)
        cache.admit(fp, fp.encode() * CHUNK)
    assert len(cache) == 3 and cache.bytes_used == 3 * CHUNK
    cache.get("a")  # refresh "a": "b" is now the LRU victim
    cache.note_seen("d")
    cache.admit("d", b"d" * CHUNK)
    assert "b" not in cache
    assert {"a", "c", "d"} == set(cache._data)
    assert stage.chunk_cache_evictions == 1
    assert cache.bytes_used == resident_bytes(cache) == 3 * CHUNK


def test_oversized_payloads_are_never_admitted():
    cache = ChunkDataCache(CHUNK, StageCounters())
    assert not cache.should_admit("big", 2 * CHUNK)
    cache.admit("big", b"x" * 2 * CHUNK)  # defensive: still refused
    assert len(cache) == 0 and cache.bytes_used == 0


def test_disabled_cache_is_inert():
    cache = ChunkDataCache(0, StageCounters())
    assert not cache.enabled
    cache.note_seen("fp")
    assert not cache.should_admit("fp", CHUNK)
    cache.admit("fp", b"x" * CHUNK)
    assert cache.get("fp") is None and len(cache) == 0


def test_evict_and_clear_keep_the_byte_ledger_exact():
    stage = StageCounters()
    cache = ChunkDataCache(8 * CHUNK, stage)
    for fp in ("a", "b", "c"):
        cache.note_seen(fp)
        cache.admit(fp, fp.encode() * CHUNK)
    assert cache.evict("b")
    assert not cache.evict("b")  # double-evict is a no-op, not a miscount
    assert cache.bytes_used == resident_bytes(cache) == 2 * CHUNK
    assert stage.chunk_cache_evictions == 1
    cache.clear()
    assert len(cache) == 0 and cache.bytes_used == 0
    assert stage.chunk_cache_evictions == 3


# -- integration: reclaim, recovery, rebalance -------------------------------


def prime(storage, oid, payload):
    """Write + drain + read twice: second read admits every chunk."""
    storage.write_sync(oid, payload)
    storage.drain()
    storage.read_sync(oid)
    storage.read_sync(oid)


def test_scrub_gc_reclaim_evicts_cached_payloads():
    storage = make_storage()
    payload = b"g" * 4 * CHUNK
    prime(storage, "obj1", payload)
    cache = storage.tier.chunk_data_cache
    assert len(cache) > 0 and cache.bytes_used > 0
    ev_before = storage.tier.stage.chunk_cache_evictions
    storage.delete_sync("obj1")
    collect_garbage_sync(storage.tier)
    # Every reclaimed chunk left the cache; the budget ledger is clean.
    assert len(cache) == 0 and cache.bytes_used == 0
    assert storage.tier.stage.chunk_cache_evictions > ev_before
    # Rewriting the same content mints the same fingerprints; reads must
    # come from the (re-stored) pool, not a stale accounting state.
    prime(storage, "obj2", payload)
    assert storage.read_sync("obj2") == payload


def test_last_deref_on_overwrite_evicts_the_dead_chunk():
    storage = make_storage()
    prime(storage, "obj1", b"a" * CHUNK)
    cache = storage.tier.chunk_data_cache
    assert len(cache) == 1
    # Overwrite with different content and drain: the old chunk's last
    # reference goes away and the chunk object is reclaimed inline.
    storage.write_sync("obj1", b"b" * CHUNK)
    storage.drain()
    assert storage.read_sync("obj1") == b"b" * CHUNK
    # The dead chunk no longer occupies budget.
    assert cache.bytes_used == resident_bytes(cache) <= CHUNK


def test_recovery_repair_fence_clears_the_cache():
    storage = make_storage()
    payload = b"r" * 4 * CHUNK
    prime(storage, "obj1", payload)
    cache = storage.tier.chunk_data_cache
    assert len(cache) > 0
    recover_sync(storage.cluster)
    assert len(cache) == 0 and cache.bytes_used == 0
    # Post-fence reads repopulate through the normal two-hit path.
    assert storage.read_sync("obj1") == payload
    assert storage.read_sync("obj1") == payload
    assert len(cache) > 0


def test_rebalance_repair_fence_clears_the_cache_and_reads_survive():
    storage = make_storage()
    payloads = {f"obj{i}": bytes([i]) * 4 * CHUNK for i in range(4)}
    for oid, payload in payloads.items():
        prime(storage, oid, payload)
    cache = storage.tier.chunk_data_cache
    assert len(cache) > 0
    diff = storage.cluster.expand("host4", 2)
    assert diff.pgs_remapped > 0
    rebalance_sync(storage.cluster)
    assert len(cache) == 0 and cache.bytes_used == 0
    # Chunks moved to different OSDs; cold reads must still assemble
    # byte-identical objects through the fan-out + coalescing path.
    for oid, payload in payloads.items():
        assert storage.read_sync(oid) == payload


def test_repair_listener_witnesses_cache_clear():
    storage = make_storage()
    prime(storage, "obj1", b"w" * 2 * CHUNK)
    cache = storage.tier.chunk_data_cache
    held = len(cache)
    assert held > 0
    ev_before = storage.tier.stage.chunk_cache_evictions
    storage.cluster.notify_repaired()
    assert len(cache) == 0
    assert storage.tier.stage.chunk_cache_evictions == ev_before + held
    assert storage.read_sync("obj1") == b"w" * 2 * CHUNK


def test_zero_byte_chunk_cache_is_bypassed():
    storage = make_storage(chunk_cache_bytes=0)
    payload = b"u" * 4 * CHUNK
    prime(storage, "obj1", payload)
    stage = storage.tier.stage
    assert not storage.tier.chunk_data_cache.enabled
    assert len(storage.tier.chunk_data_cache) == 0
    assert stage.chunk_cache_hits == stage.chunk_cache_misses == 0
    assert stage.chunk_cache_admissions == 0
    # Every read still fetches all four chunks, as one batch.
    assert stage.fanout_chunk_reads == stage.fanout_batched_chunks > 0
    assert storage.read_sync("obj1") == payload
