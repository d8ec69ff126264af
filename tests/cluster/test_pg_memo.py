"""PG placement is hashed once per (pool, oid) and once per (pool, pg)."""

from collections import Counter

from repro.cluster import RadosCluster, stable_hash64
from repro.cluster import crush as crush_mod
from repro.cluster import pool as pool_mod
from repro.core import DedupConfig, DedupedStorage


def _counting(monkeypatch, module):
    counts = Counter()

    def wrapped(*parts):
        counts[parts] += 1
        return stable_hash64(*parts)

    monkeypatch.setattr(module, "stable_hash64", wrapped)
    return counts


def test_pg_of_hashes_each_pool_oid_once(monkeypatch):
    counts = _counting(monkeypatch, pool_mod)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=16)
    storage = DedupedStorage(cluster, DedupConfig(chunk_size=1024), start_engine=False)
    for rnd in range(3):
        for i in range(6):
            storage.write_sync(f"obj{i}", bytes([i % 3, rnd]) * 1024)
            assert storage.read_sync(f"obj{i}") == bytes([i % 3, rnd]) * 1024
        storage.drain()
    obj_hashes = {k: n for k, n in counts.items() if k[0] == "obj"}
    pools = {pool_id for _tag, pool_id, _oid in obj_hashes}
    assert pools == {storage.tier.metadata_pool.pool_id, storage.tier.chunk_pool.pool_id}
    assert len(obj_hashes) > 12
    assert max(obj_hashes.values()) == 1


def test_same_oid_in_two_pools_keeps_its_own_pg():
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=16)
    a = cluster.create_pool("a", pg_num=16)
    b = cluster.create_pool("b", pg_num=7)
    for _ in range(2):  # second round is served from the memo
        for oid in ("x", "y", "obj-42"):
            for pool in (a, b):
                expected = stable_hash64("obj", pool.pool_id, oid) % pool.pg_num
                assert pool.pg_of(oid) == expected


def test_pg_seed_memo_survives_topology_change(monkeypatch):
    counts = _counting(monkeypatch, crush_mod)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=8)
    pool = cluster.create_pool("p", pg_num=8)
    before = {pg: pool.acting_set(pg) for pg in range(pool.pg_num)}
    cluster.expand("host-new", 2)
    after = {pg: pool.acting_set(pg) for pg in range(pool.pg_num)}
    assert before != after  # the new epoch moved some PGs
    crush = cluster.crush
    for pg in range(pool.pg_num):
        seed = stable_hash64("pg", pool.pool_id, pg)
        assert crush.pg_seed(pool.pool_id, pg) == seed
        assert after[pg] == crush.select(seed, pool.redundancy.width)
        assert counts[("pg", pool.pool_id, pg)] == 1
