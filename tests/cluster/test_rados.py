"""Integration tests for the RADOS-like cluster facade."""

import pytest

from repro.cluster import (
    ErasureCoded,
    NoSuchObject,
    NotEnoughReplicas,
    RadosCluster,
    Replicated,
    Transaction,
)


@pytest.fixture
def cluster():
    return RadosCluster(num_hosts=4, osds_per_host=4, pg_num=32)


@pytest.fixture
def rpool(cluster):
    return cluster.create_pool("data", Replicated(2))


@pytest.fixture
def ecpool(cluster):
    return cluster.create_pool("ecdata", ErasureCoded(k=2, m=1))


def test_write_read_roundtrip(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"hello world")
    assert cluster.read_sync(rpool, "obj1") == b"hello world"


def test_read_takes_positive_simulated_time(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"x" * 65536)
    before = cluster.sim.now
    cluster.read_sync(rpool, "obj1")
    assert cluster.sim.now > before


def test_partial_write_and_offset_read(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"aaaaaaaaaa")
    cluster.write_sync(rpool, "obj1", 3, b"BBB")
    assert cluster.read_sync(rpool, "obj1") == b"aaaBBBaaaa"
    assert cluster.read_sync(rpool, "obj1", offset=3, length=3) == b"BBB"


def test_replication_stores_two_copies(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"payload")
    key = cluster.object_key(rpool, "obj1")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    assert len(holders) == 2
    hosts = {o.node.name for o in holders}
    assert len(hosts) == 2  # distinct hosts
    for osd in holders:
        assert osd.store.read(key) == b"payload"


def test_read_of_missing_object_raises(cluster, rpool):
    with pytest.raises(NoSuchObject):
        cluster.read_sync(rpool, "ghost")


def test_remove_deletes_all_copies(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"x")
    cluster.remove_sync(rpool, "obj1")
    key = cluster.object_key(rpool, "obj1")
    assert not any(o.store.exists(key) for o in cluster.osds.values())


def test_transaction_with_xattr_and_omap(cluster, rpool):
    key = cluster.object_key(rpool, "meta")
    txn = (
        Transaction()
        .write_full(key, b"data")
        .setxattr(key, "chunk_map", b"serialized")
        .omap_set(key, {"dirty:o1": b"1"})
    )
    cluster.submit_sync(rpool, "meta", txn)
    assert cluster.run(cluster.getxattr(rpool, "meta", "chunk_map")) == b"serialized"
    assert cluster.run(cluster.omap_get(rpool, "meta", "dirty:o1")) == b"1"
    assert cluster.omap_keys(rpool, "meta") == ["dirty:o1"]
    # The xattr is replicated on every copy (self-contained object).
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    assert all(o.store.getxattr(key, "chunk_map") == b"serialized" for o in holders)


def test_stat(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"12345")
    assert cluster.run(cluster.stat(rpool, "obj1")) == 5


def test_exists(cluster, rpool):
    assert not cluster.exists(rpool, "obj1")
    cluster.write_full_sync(rpool, "obj1", b"x")
    assert cluster.exists(rpool, "obj1")


def test_list_objects(cluster, rpool):
    for i in range(5):
        cluster.write_full_sync(rpool, f"obj{i}", b"x")
    assert cluster.list_objects(rpool) == [f"obj{i}" for i in range(5)]


def test_degraded_write_and_read_with_one_down_osd(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"v1")
    key = cluster.object_key(rpool, "obj1")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    cluster.cluster_map.mark_down(holders[0])  # down but still "in"
    cluster.write_full_sync(rpool, "obj1", b"v2")  # degraded write
    assert cluster.read_sync(rpool, "obj1") == b"v2"


def test_write_fails_below_min_size(cluster):
    pool = cluster.create_pool("strict", Replicated(2))
    cluster.write_full_sync(pool, "obj1", b"v1")
    key = cluster.object_key(pool, "obj1")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    for osd_id in holders:
        cluster.cluster_map.mark_down(osd_id)
    with pytest.raises(NotEnoughReplicas):
        cluster.write_full_sync(pool, "obj1", b"v2")


def test_usage_accounting_counts_replicas(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"x" * 1000)
    assert cluster.pool_logical_bytes(rpool) == 1000
    used = cluster.pool_used_bytes(rpool)
    assert used >= 2 * 1000  # two replicas
    assert cluster.total_used_bytes() == used


# ------------------------------------------------------------------- EC


def test_ec_write_read_roundtrip(cluster, ecpool):
    data = bytes(range(256)) * 64
    cluster.write_full_sync(ecpool, "obj1", data)
    assert cluster.read_sync(ecpool, "obj1") == data


def test_ec_stores_k_plus_m_shards(cluster, ecpool):
    cluster.write_full_sync(ecpool, "obj1", b"y" * 3000)
    key = cluster.object_key(ecpool, "obj1")
    holders = [o for o in cluster.osds.values() if o.store.exists(key)]
    assert len(holders) == 3
    # Raw usage is ~1.5x logical (2+1), not 2x.
    assert cluster.pool_logical_bytes(ecpool) == 3000
    shard_bytes = sum(o.store.data_bytes() for o in holders)
    assert shard_bytes == pytest.approx(1.5 * 3000, rel=0.01)


def test_ec_read_with_one_shard_down(cluster, ecpool):
    data = b"important" * 500
    cluster.write_full_sync(ecpool, "obj1", data)
    key = cluster.object_key(ecpool, "obj1")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    cluster.cluster_map.mark_down(holders[0])
    assert cluster.read_sync(ecpool, "obj1") == data


def test_ec_read_fails_with_two_shards_down(cluster, ecpool):
    cluster.write_full_sync(ecpool, "obj1", b"data")
    key = cluster.object_key(ecpool, "obj1")
    holders = [o.osd_id for o in cluster.osds.values() if o.store.exists(key)]
    for osd_id in holders[:2]:
        cluster.cluster_map.mark_down(osd_id)
    with pytest.raises(NotEnoughReplicas):
        cluster.read_sync(ecpool, "obj1")


def test_ec_partial_write_rmw(cluster, ecpool):
    cluster.write_full_sync(ecpool, "obj1", b"a" * 100)
    cluster.write_sync(ecpool, "obj1", 10, b"MODIFIED")
    got = cluster.read_sync(ecpool, "obj1")
    assert got[:10] == b"a" * 10
    assert got[10:18] == b"MODIFIED"
    assert got[18:] == b"a" * 82


def test_ec_partial_write_creates_object(cluster, ecpool):
    cluster.write_sync(ecpool, "fresh", 4, b"tail")
    assert cluster.read_sync(ecpool, "fresh") == b"\x00" * 4 + b"tail"


def test_ec_offset_read(cluster, ecpool):
    cluster.write_full_sync(ecpool, "obj1", b"0123456789")
    assert cluster.read_sync(ecpool, "obj1", offset=4, length=3) == b"456"


def test_ec_remove(cluster, ecpool):
    cluster.write_full_sync(ecpool, "obj1", b"x" * 100)
    cluster.remove_sync(ecpool, "obj1")
    key = cluster.object_key(ecpool, "obj1")
    assert not any(o.store.exists(key) for o in cluster.osds.values())


def test_ec_stat_reports_logical_length(cluster, ecpool):
    cluster.write_full_sync(ecpool, "obj1", b"z" * 12345)
    assert cluster.run(cluster.stat(ecpool, "obj1")) == 12345


# ---------------------------------------------------------------- read_batch


def _ops_reads(cluster):
    return sum(osd.op_reads for osd in cluster.osds.values())


def test_one_item_read_batch_is_a_plain_read():
    def timed(call):
        cluster = RadosCluster(num_hosts=4, osds_per_host=4, pg_num=32)
        pool = cluster.create_pool("data", Replicated(2))
        cluster.write_full_sync(pool, "obj1", bytes(range(256)) * 64)
        before = cluster.sim.now
        data = cluster.run(call(cluster, pool))
        return data, cluster.sim.now - before

    read = timed(lambda c, p: c.read(p, "obj1", 100, 5000))
    batch = timed(lambda c, p: c.read_batch(p, [("obj1", 100, 5000)]))
    assert batch == ([read[0]], read[1])
    assert read[0] == (bytes(range(256)) * 64)[100:5100]


def test_multi_pg_read_batch_results_align_with_requests(cluster, rpool):
    payloads = {f"obj{i}": bytes([i]) * (1000 + i) for i in range(12)}
    for oid, data in payloads.items():
        cluster.write_full_sync(rpool, oid, data)
    assert len({rpool.pg_of(oid) for oid in payloads}) > 1
    requests = [(oid, i % 7, 100 + i) for i, oid in enumerate(reversed(list(payloads)))]
    results = cluster.run(cluster.read_batch(rpool, requests))
    assert results == [payloads[oid][off : off + ln] for oid, off, ln in requests]


def test_read_batch_merges_ranges_of_one_object_into_one_disk_read(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"0123456789" * 100)
    before = _ops_reads(cluster)
    results = cluster.run(
        cluster.read_batch(rpool, [("obj1", 900, 10), ("obj1", 10, 5)])
    )
    assert results == [b"0123456789", b"01234"]
    assert _ops_reads(cluster) - before == 1


def test_ec_read_batch(cluster, ecpool):
    cluster.write_full_sync(ecpool, "a", b"a" * 5000)
    cluster.write_full_sync(ecpool, "b", b"0123456789")
    results = cluster.run(
        cluster.read_batch(ecpool, [("b", 4, 3), ("a", 0, None), ("b", 8, None)])
    )
    assert results == [b"456", b"a" * 5000, b"89"]


def test_read_batch_with_a_missing_object_raises(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"x" * 10)
    with pytest.raises(NoSuchObject):
        cluster.run(cluster.read_batch(rpool, [("obj1", 0, 10), ("ghost", 0, 10)]))


def test_read_batch_range_past_the_end_comes_back_short(cluster, rpool):
    cluster.write_full_sync(rpool, "obj1", b"0123456789")
    cluster.write_full_sync(rpool, "obj2", b"abc")
    results = cluster.run(
        cluster.read_batch(
            rpool, [("obj1", 8, 10), ("obj2", 5, 4), ("obj1", 0, 2)]
        )
    )
    assert results == [b"89", b"", b"01"]


# ---------------------------------------------------------------- topology


def test_duplicate_pool_rejected(cluster):
    cluster.create_pool("p1")
    with pytest.raises(ValueError):
        cluster.create_pool("p1")


def test_duplicate_host_rejected(cluster):
    with pytest.raises(ValueError):
        cluster.add_host("host0", 2)


def test_add_host_grows_cluster(cluster):
    before = len(cluster.osds)
    cluster.add_host("newhost", 4)
    assert len(cluster.osds) == before + 4


def test_multiple_clients_contend(cluster, rpool):
    """Two clients writing concurrently both succeed and interleave."""
    c1 = cluster.client("c1")
    c2 = cluster.client("c2")

    def writer(cluster, pool, client, prefix):
        for i in range(5):
            yield from cluster.write_full(pool, f"{prefix}-{i}", b"d" * 4096, client)

    p1 = cluster.sim.process(writer(cluster, rpool, c1, "a"))
    p2 = cluster.sim.process(writer(cluster, rpool, c2, "b"))
    cluster.sim.run()
    assert p1.ok and p2.ok
    assert len(cluster.list_objects(rpool)) == 10
