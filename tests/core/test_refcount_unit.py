"""Unit tests for the refcount strategies in isolation."""


from repro.cluster import RadosCluster
from repro.core import (
    DedupConfig,
    FalsePositiveRefcount,
    StrictRefcount,
    make_refcounter,
)
from repro.core.objects import ChunkRef
from repro.core.tier import DedupTier, NodeClient
from repro.fingerprint import fingerprint


def make_tier(mode="strict"):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    tier = DedupTier(cluster, DedupConfig(chunk_size=1024, refcount_mode=mode))
    via = NodeClient(next(iter(cluster.nodes.values())))
    return tier, via


def test_factory_selects_strategy():
    tier, _via = make_tier("strict")
    assert isinstance(make_refcounter(tier), StrictRefcount)
    tier, _via = make_tier("false_positive")
    assert isinstance(make_refcounter(tier), FalsePositiveRefcount)


def test_strict_deref_is_immediate():
    tier, via = make_tier("strict")
    data = b"x" * 512
    fp = fingerprint(data)
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    tier.cluster.run(tier.chunk_ref(fp, ref, data, via))
    counter = StrictRefcount(tier)
    assert counter.pending == 0
    tier.cluster.run(counter.deref(fp, ref, via))
    assert not tier.cluster.exists(tier.chunk_pool, fp)


def test_fp_deref_is_deferred_until_gc():
    tier, via = make_tier("false_positive")
    data = b"y" * 512
    fp = fingerprint(data)
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    tier.cluster.run(tier.chunk_ref(fp, ref, data, via))
    counter = FalsePositiveRefcount(tier)
    tier.cluster.run(counter.deref(fp, ref, via))
    assert counter.pending == 1
    assert tier.cluster.exists(tier.chunk_pool, fp)  # still there
    tier.cluster.run(counter.gc(via))
    assert counter.pending == 0
    assert counter.collected == 1
    assert not tier.cluster.exists(tier.chunk_pool, fp)


def test_chunk_ref_idempotent_same_ref():
    tier, via = make_tier()
    data = b"z" * 256
    fp = fingerprint(data)
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    assert tier.cluster.run(tier.chunk_ref(fp, ref, data, via)) is True
    assert tier.cluster.run(tier.chunk_ref(fp, ref, data, via)) is False
    assert tier.chunk_refcount(fp) == 1


def test_deref_unknown_chunk_is_noop():
    tier, via = make_tier()
    ref = ChunkRef(tier.metadata_pool.pool_id, "o", 0)
    tier.cluster.run(tier.chunk_deref("deadbeef" * 5, ref, via))  # no raise


def test_deref_foreign_ref_leaves_chunk():
    tier, via = make_tier()
    data = b"w" * 256
    fp = fingerprint(data)
    mine = ChunkRef(tier.metadata_pool.pool_id, "mine", 0)
    other = ChunkRef(tier.metadata_pool.pool_id, "other", 0)
    tier.cluster.run(tier.chunk_ref(fp, mine, data, via))
    tier.cluster.run(tier.chunk_deref(fp, other, via))  # not a holder
    assert tier.cluster.exists(tier.chunk_pool, fp)
    assert tier.chunk_refcount(fp) == 1


def test_fp_gc_requeues_only_the_faulted_slice(monkeypatch):
    from repro.faults.errors import TransientOpError

    tier, via = make_tier("false_positive")
    tier.config.batch_refs = False  # one-op slices
    counter = FalsePositiveRefcount(tier)
    fps = []
    for i in range(3):
        data = bytes([i + 1]) * 512
        fps.append(fingerprint(data))
        ref = ChunkRef(tier.metadata_pool.pool_id, "o", i * 512)
        tier.cluster.run(tier.chunk_ref(fps[-1], ref, data, via))
        tier.cluster.run(counter.deref(fps[-1], ref, via))
    real_commit = tier.commit_chunk_batch
    calls = {"n": 0}

    def flaky_commit(batch, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise TransientOpError(0, "commit_chunk_batch")
        return real_commit(batch, *args, **kwargs)

    monkeypatch.setattr(tier, "commit_chunk_batch", flaky_commit)
    tier.cluster.run(counter.gc(via))
    # The second slice faulted: only its deref waits for the next pass.
    assert counter.collected == 2
    assert counter.pending == 1
    assert [tier.cluster.exists(tier.chunk_pool, fp) for fp in fps] == [False, True, False]
    tier.cluster.run(counter.gc(via))
    assert counter.pending == 0
    assert not tier.cluster.exists(tier.chunk_pool, fps[1])
