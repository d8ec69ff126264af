"""Tests for the foreground write/read paths (engine off)."""

import pytest

from repro.cluster import OSD, NoSuchObject, RadosCluster
from repro.core import CHUNK_MAP_XATTR, DedupConfig, DedupedStorage


@pytest.fixture
def storage():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=1024, dedup_interval=0.01)
    return DedupedStorage(cluster, config, start_engine=False)


def test_write_read_roundtrip(storage):
    storage.write_sync("obj1", b"hello world")
    assert storage.read_sync("obj1") == b"hello world"


def test_multi_chunk_roundtrip(storage):
    data = bytes(range(256)) * 20  # 5 chunks of 1024
    storage.write_sync("obj1", data)
    assert storage.read_sync("obj1") == data


def test_offset_read(storage):
    data = b"0123456789" * 500
    storage.write_sync("obj1", data)
    assert storage.read_sync("obj1", offset=1000, length=100) == data[1000:1100]


def test_read_past_eof_is_short(storage):
    storage.write_sync("obj1", b"short")
    assert storage.read_sync("obj1", offset=3, length=100) == b"rt"
    assert storage.read_sync("obj1", offset=100, length=5) == b""


def test_read_missing_object_raises(storage):
    with pytest.raises(NoSuchObject):
        storage.read_sync("ghost")


def test_partial_overwrite(storage):
    storage.write_sync("obj1", b"a" * 3000)
    storage.write_sync("obj1", b"B" * 100, offset=1500)
    got = storage.read_sync("obj1")
    assert got[:1500] == b"a" * 1500
    assert got[1500:1600] == b"B" * 100
    assert got[1600:] == b"a" * 1400


def test_sparse_write_reads_zeros_in_gap(storage):
    storage.write_sync("obj1", b"head")
    storage.write_sync("obj1", b"tail", offset=5000)
    got = storage.read_sync("obj1")
    assert got[:4] == b"head"
    assert got[4:5000] == b"\x00" * 4996
    assert got[5000:] == b"tail"


def test_empty_write_is_noop(storage):
    storage.write_sync("obj1", b"")
    assert not storage.cluster.exists(storage.tier.metadata_pool, "obj1")


def test_negative_offset_rejected(storage):
    with pytest.raises(ValueError):
        storage.write_sync("obj1", b"x", offset=-1)
    storage.write_sync("obj1", b"x")
    with pytest.raises(ValueError):
        storage.read_sync("obj1", offset=-1)


def test_write_marks_dirty_and_cached(storage):
    storage.write_sync("obj1", b"z" * 2500)
    cmap = storage.tier.peek_chunk_map("obj1")
    assert cmap is not None
    assert len(cmap) == 3
    for entry in cmap:
        assert entry.cached and entry.dirty
        assert entry.chunk_id == ""  # fingerprinting deferred
    assert storage.tier.dirty_count == 1


def test_chunk_map_persisted_on_all_replicas(storage):
    storage.write_sync("obj1", b"y" * 1024)
    key = storage.tier.metadata_key("obj1")
    holders = [
        o for o in storage.cluster.osds.values() if o.store.exists(key)
    ]
    assert len(holders) == 2
    blobs = {bytes(o.store.getxattr(key, CHUNK_MAP_XATTR)) for o in holders}
    assert len(blobs) == 1  # identical on every copy (self-contained)


def test_tail_chunk_length_grows(storage):
    storage.write_sync("obj1", b"a" * 100)
    storage.write_sync("obj1", b"b" * 100, offset=100)
    cmap = storage.tier.peek_chunk_map("obj1")
    assert cmap.get(0).length == 200
    assert storage.read_sync("obj1") == b"a" * 100 + b"b" * 100


def test_write_after_flush_prereads_noncached_chunk(storage):
    """Partial overwrite of a flushed+evicted chunk pre-reads the
    missing bytes from the chunk pool (write path step 2)."""
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()  # flush; cold object -> evicted from cache
    cmap = storage.tier.peek_chunk_map("obj1")
    assert not cmap.get(0).cached
    storage.write_sync("obj1", b"MID", offset=500)
    got = storage.read_sync("obj1")
    assert got == b"a" * 500 + b"MID" + b"a" * 521


def test_full_chunk_overwrite_skips_preread(storage):
    storage.write_sync("obj1", b"a" * 1024)
    storage.drain()
    before = storage.tier.fg_window.total_ops
    storage.write_sync("obj1", b"b" * 1024)  # full cover: no pre-read
    assert storage.read_sync("obj1") == b"b" * 1024
    assert storage.tier.fg_window.total_ops == before + 2  # write + read


def test_foreground_ops_feed_rate_window(storage):
    storage.write_sync("obj1", b"x" * 1024)
    storage.read_sync("obj1")
    assert storage.tier.fg_window.total_ops == 2
    assert storage.tier.fg_window.total_bytes == 2048


def test_many_objects_roundtrip(storage):
    payloads = {f"obj{i}": bytes([i]) * (100 + i * 37) for i in range(30)}
    for oid, data in payloads.items():
        storage.write_sync(oid, data)
    for oid, data in payloads.items():
        assert storage.read_sync(oid) == data


def test_short_segment_read_pads_and_counts(storage):
    """A chunk-pool segment that comes back short (backing object
    truncated mid-flight) is zero-padded, never silently dropped, and
    the anomaly is counted for the harness."""
    from repro.fingerprint import fingerprint

    data = b"s" * 1024 + b"t" * 1024
    storage.write_sync("obj1", data)
    storage.drain()  # chunks now live in the chunk pool, entries evicted
    fp = fingerprint(b"t" * 1024)
    key = storage.cluster.object_key(storage.tier.chunk_pool, fp)
    for osd in storage.cluster.osds.values():
        if osd.store.exists(key):
            del osd.store.get(key).data[100:]  # truncate every replica
    assert storage.tier.stage.read_short_segments == 0
    got = storage.read_sync("obj1")
    assert storage.tier.stage.read_short_segments >= 1
    assert got == b"s" * 1024 + b"t" * 100 + b"\x00" * 924


def test_concurrent_reads_never_wait_on_each_others_chunk_fetches(monkeypatch):
    """Chunk fetches are not throttled across the tier: with well over
    16 fetches in flight from several clients, every read's first chunk
    fetch reaches its OSD before any chunk fetch has finished."""
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(chunk_size=1024, cache_on_flush=False, chunk_cache_bytes=0)
    storage = DedupedStorage(cluster, config, start_engine=False)
    tier = storage.tier
    readers = [f"obj{r}" for r in range(6)]
    for r, oid in enumerate(readers):
        storage.write_sync(oid, b"".join(bytes([r, c]) * 512 for c in range(8)))
    storage.drain()
    chunks = {}
    for oid in readers:
        storage.read_sync(oid)  # warms the map cache: no disk before fetches
        cmap = cluster.run(tier.load_chunk_map(oid))
        chunks[oid] = {entry.chunk_id for entry in cmap}
    assert sum(len(ids) for ids in chunks.values()) > 16

    entered, finished = {}, []
    original = OSD.execute_read

    def traced(self, key, offset=0, length=None):
        if key.pool_id == tier.chunk_pool.pool_id:
            entered.setdefault(key.name, storage.sim.now)
        data = yield from original(self, key, offset, length)
        if key.pool_id == tier.chunk_pool.pool_id:
            finished.append(storage.sim.now)
        return data

    monkeypatch.setattr(OSD, "execute_read", traced)

    def read_all():
        procs = [
            storage.sim.process(storage.read(oid, client=storage.client(f"c{i}")))
            for i, oid in enumerate(readers)
        ]
        yield storage.sim.all_of(procs)

    cluster.run(read_all())
    first_finish = min(finished)
    for oid in readers:
        assert min(entered[cid] for cid in chunks[oid]) < first_finish, oid
