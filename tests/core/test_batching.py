"""Chunk-pool reference commits against a reference model, and the
requeue-dedupe regression.

Every chunk-pool reference commit goes through one path
(``ChunkBatch`` -> ``DedupTier.commit_chunk_batch`` ->
``RadosCluster.submit_batch``).  However a sequence of refs and derefs
is split — unbounded batches, one-op slices, an EC 2+1 chunk pool (which
always commits one op at a time), or the one-op ``chunk_ref`` /
``chunk_deref`` wrappers — the stored state must equal a reference model
applied op by op: same refs per chunk, same chunk objects, same
payloads.  That must also hold under injected transient faults (a
replicated batch prepares every placement group before committing any,
and every op is idempotent, so a faulted slice retries as a unit).
"""

import pytest

from repro.cluster import ErasureCoded, RadosCluster
from repro.core import DedupConfig
from repro.core.objects import REFS_XATTR, ChunkRef, RefSet
from repro.core.tier import ChunkBatch, DedupTier, NodeClient
from repro.fingerprint import fingerprint

# Small, distinct chunk payloads; their fingerprints are the chunk ids.
PAYLOADS = [bytes([i]) * 512 for i in range(3)]
FPS = [fingerprint(p) for p in PAYLOADS]
# (pool_id, oid, offset) back-references; pool_id 1 matches the
# metadata pool of every cluster built by make_tier (deterministic ids).
REFS = [ChunkRef(1, f"o{i}", i * 512) for i in range(4)]

#: How each variant commits: ``(batch_refs, EC chunk pool)``.
VARIANTS = {
    "unbounded": (True, False),
    "slices-of-one": (False, False),
    "ec-2+1": (True, True),
}


def make_tier(batched: bool = True, ec: bool = False, **overrides):
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    config = DedupConfig(
        chunk_size=1024,
        batch_refs=batched,
        refset_cache_entries=64 if batched else 0,
        chunk_bloom_capacity=1024 if batched else 0,
        **overrides,
    )
    tier = DedupTier(
        cluster, config, chunk_redundancy=ErasureCoded(2, 1) if ec else None
    )
    via = NodeClient(next(iter(cluster.nodes.values())))
    return tier, via


# -- requeue_dirty dedupe (regression) --------------------------------------
#
# A retryable engine abort used to requeue the same object from both the
# pass's fault handler and the worker loop's, so one oid landed on the
# dirty list twice and was drained (and re-processed) twice.


def test_delayed_requeue_is_deduplicated():
    tier, _via = make_tier(batched=True)
    tier.requeue_dirty("obj", delay=0.5)
    tier.requeue_dirty("obj", delay=0.5)  # double-enqueue attempt
    tier.cluster.sim.run()
    assert tier.dirty_count == 1
    assert tier.next_dirty() == "obj"
    assert tier.next_dirty() is None


def test_delayed_requeue_skipped_when_already_dirty():
    tier, _via = make_tier(batched=True)
    tier.mark_dirty("obj")
    tier.requeue_dirty("obj", delay=0.5)
    tier.cluster.sim.run()
    assert tier.dirty_count == 1


def test_requeue_after_drain_fires_again():
    # Dedupe must not suppress a legitimate later requeue.
    tier, _via = make_tier(batched=True)
    tier.requeue_dirty("obj", delay=0.1)
    tier.cluster.sim.run()
    assert tier.next_dirty() == "obj"
    tier.requeue_dirty("obj", delay=0.1)
    tier.cluster.sim.run()
    assert tier.dirty_count == 1


# -- reference model ---------------------------------------------------------


def model_apply(ops):
    """The spec, applied op by op: chunk id -> the refs it holds.

    A chunk's reference records are a set — re-adding a held ref or
    dropping one it does not hold changes nothing — and a chunk object
    exists exactly while it holds at least one ref.
    """
    model = {}
    for kind, chunk_idx, ref_idx in ops:
        refs = model.setdefault(FPS[chunk_idx], set())
        if kind == "ref":
            refs.add(REFS[ref_idx])
        else:
            refs.discard(REFS[ref_idx])
    return {fp: refs for fp, refs in model.items() if refs}


def stored_refs(tier, fp):
    """Refs recorded on the stored chunk object (``None``: no object)."""
    key = tier.cluster.object_key(tier.chunk_pool, fp)
    for osd in tier.cluster.acting_osds(tier.chunk_pool, fp):
        if osd.up and osd.store.exists(key):
            return set(RefSet.deserialize(osd.store.getxattr(key, REFS_XATTR)))
    return None


def assert_matches_model(tier, via, ops):
    model = model_apply(ops)
    for chunk_idx, fp in enumerate(FPS):
        assert stored_refs(tier, fp) == model.get(fp)
        assert tier.chunk_refcount(fp) == len(model.get(fp, ()))
        if fp in model:
            data = tier.cluster.run(tier.read_chunk(fp, 0, None, via))
            assert data == PAYLOADS[chunk_idx]
    report = tier.space_report()
    assert report.chunk_objects == len(model)
    assert report.chunk_data_bytes == sum(len(PAYLOADS[0]) for _ in model)


def to_batch(ops):
    batch = ChunkBatch()
    for kind, chunk_idx, ref_idx in ops:
        if kind == "ref":
            batch.ref(FPS[chunk_idx], REFS[ref_idx], PAYLOADS[chunk_idx])
        else:
            batch.deref(FPS[chunk_idx], REFS[ref_idx])
    return batch


def apply_batched(tier, via, ops, batch_size, run=None):
    """Commit ``ops`` in batches of ``batch_size``, each slice by slice
    at the tier's per-commit op limit (as the engine does)."""
    run = run or (lambda part: tier.cluster.run(tier.commit_chunk_batch(part, via)))
    for start in range(0, len(ops), batch_size):
        batch = to_batch(ops[start : start + batch_size])
        for _start, part in batch.slices(tier.ref_commit_limit):
            run(part)


def apply_per_op(tier, via, ops):
    for kind, chunk_idx, ref_idx in ops:
        if kind == "ref":
            tier.cluster.run(
                tier.chunk_ref(FPS[chunk_idx], REFS[ref_idx], PAYLOADS[chunk_idx], via)
            )
        else:
            tier.cluster.run(tier.chunk_deref(FPS[chunk_idx], REFS[ref_idx], via))


MIXED_OPS = [
    ("ref", 0, 0),
    ("ref", 0, 1),
    ("ref", 1, 0),
    ("deref", 0, 0),
    ("ref", 2, 2),
    ("deref", 2, 2),  # net no-op within one batch: chunk never created
    ("deref", 1, 3),  # deref of a reference never taken: no-op
]


def test_mixed_batch_matches_sequential():
    for batched, ec in VARIANTS.values():
        tier, via = make_tier(batched, ec)
        apply_batched(tier, via, MIXED_OPS, batch_size=len(MIXED_OPS))
        assert_matches_model(tier, via, MIXED_OPS)
        assert not tier.cluster.exists(tier.chunk_pool, FPS[2])


def test_per_op_wrappers_match_model():
    tier, via = make_tier()
    apply_per_op(tier, via, MIXED_OPS)
    assert_matches_model(tier, via, MIXED_OPS)


def test_batch_to_zero_refs_removes_chunk():
    batched, bvia = make_tier(batched=True)
    apply_batched(batched, bvia, [("ref", 0, 0), ("ref", 0, 1)], batch_size=2)
    assert batched.chunk_refcount(FPS[0]) == 2
    apply_batched(batched, bvia, [("deref", 0, 0), ("deref", 0, 1)], batch_size=2)
    assert not batched.cluster.exists(batched.chunk_pool, FPS[0])


def test_slices_cover_batch_in_order():
    batch = to_batch([("ref", i % 3, i % 4) for i in range(7)])
    for limit, sizes in ((None, [7]), (1, [1] * 7), (3, [3, 3, 1])):
        parts = list(batch.slices(limit))
        assert [len(p) for _s, p in parts] == sizes
        assert [op for _s, p in parts for op in p.ops] == batch.ops
        assert [s for s, _p in parts] == [sum(sizes[:i]) for i in range(len(sizes))]


def test_ref_commit_limit():
    assert make_tier(batched=True)[0].ref_commit_limit is None
    assert make_tier(batched=False)[0].ref_commit_limit == 1
    assert make_tier(batched=True, ec=True)[0].ref_commit_limit == 1


# -- idempotent derefs cost no I/O (§4.6) ------------------------------------


def io_counters(tier):
    osds = tier.cluster.osds.values()
    return (
        sum(osd.disk.writes for osd in osds),
        sum(osd.op_writes for osd in osds),
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_idempotent_deref_costs_no_write(variant):
    tier, via = make_tier(*VARIANTS[variant])
    apply_batched(tier, via, [("ref", 0, 0)], batch_size=1)
    before = io_counters(tier)
    # A ref the chunk does not hold, and a chunk that does not exist.
    apply_batched(tier, via, [("deref", 0, 1), ("deref", 1, 0)], batch_size=2)
    tier.cluster.run(tier.chunk_deref(FPS[0], REFS[2], via))
    # Re-adding a ref the chunk already holds changes nothing either.
    apply_batched(tier, via, [("ref", 0, 0)], batch_size=1)
    assert io_counters(tier) == before
    assert stored_refs(tier, FPS[0]) == {REFS[0]}


# -- EC chunk pool costs -------------------------------------------------------


def disk_reads(tier):
    return sum(osd.disk.reads for osd in tier.cluster.osds.values())


def shard_holders(tier, fp):
    key = tier.cluster.object_key(tier.chunk_pool, fp)
    return [osd for osd in tier.cluster.osds.values() if osd.store.exists(key)]


def test_ec_new_chunk_is_one_stripe_write_carrying_refs():
    tier, via = make_tier(ec=True)
    writes_before = io_counters(tier)[0]
    assert tier.cluster.run(tier.chunk_ref(FPS[0], REFS[0], PAYLOADS[0], via)) is True
    shards = shard_holders(tier, FPS[0])
    assert len(shards) == 3
    # One write per shard, each already carrying the refs xattr.
    assert io_counters(tier)[0] - writes_before == 3
    assert disk_reads(tier) == 0
    for osd in shards:
        key = tier.cluster.object_key(tier.chunk_pool, FPS[0])
        assert set(RefSet.deserialize(osd.store.getxattr(key, REFS_XATTR))) == {REFS[0]}


def test_ec_ref_to_existing_chunk_reads_nothing():
    tier, via = make_tier(ec=True)
    tier.cluster.run(tier.chunk_ref(FPS[0], REFS[0], PAYLOADS[0], via))
    reads_before = disk_reads(tier)
    assert tier.cluster.run(tier.chunk_ref(FPS[0], REFS[1], PAYLOADS[0], via)) is False
    assert disk_reads(tier) == reads_before
    assert stored_refs(tier, FPS[0]) == {REFS[0], REFS[1]}


def test_ec_deref_to_zero_reads_nothing_and_removes_every_shard():
    tier, via = make_tier(ec=True)
    tier.cluster.run(tier.chunk_ref(FPS[0], REFS[0], PAYLOADS[0], via))
    assert len(shard_holders(tier, FPS[0])) == 3
    reads_before = disk_reads(tier)
    tier.cluster.run(tier.chunk_deref(FPS[0], REFS[0], via))
    assert disk_reads(tier) == reads_before
    assert shard_holders(tier, FPS[0]) == []


# -- property: ANY interleaving, ANY batch split ----------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

op_strategy = st.tuples(
    st.sampled_from(["ref", "deref"]),
    st.integers(min_value=0, max_value=len(PAYLOADS) - 1),
    st.integers(min_value=0, max_value=len(REFS) - 1),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=24),
    batch_size=st.integers(min_value=1, max_value=8),
)
def test_any_interleaving_batched_equals_sequential(ops, batch_size):
    for batched, ec in VARIANTS.values():
        tier, via = make_tier(batched, ec)
        apply_batched(tier, via, ops, batch_size)
        assert_matches_model(tier, via, ops)
    tier, via = make_tier()
    apply_per_op(tier, via, ops)
    assert_matches_model(tier, via, ops)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=16),
    batch_size=st.integers(min_value=1, max_value=8),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_equals_sequential_under_faults(ops, batch_size, fault_seed):
    """Transient faults change nothing observable.

    EIO windows and slow disks hit each variant's cluster; retrying a
    faulted slice as a unit (legal because nothing commits before every
    group prepares, and every op is idempotent) must converge to the
    model's state.
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.faults.retry import RetryPolicy, call_with_retries

    policy = RetryPolicy(max_attempts=10, base_delay=0.01, max_delay=0.5)
    for batched, ec in VARIANTS.values():
        tier, via = make_tier(batched, ec)
        plan = FaultPlan.generate(
            seed=fault_seed,
            horizon=2.0,
            osd_ids=list(tier.cluster.osds),
            crash_rate=0.0,        # availability faults would need recovery,
            partition_rate=0.0,    # not retry — out of scope for equivalence
            slow_rate=1.0,
            eio_rate=1.5,
        )
        FaultInjector(tier.cluster, plan, auto_recover=True).attach()

        def run(part, tier=tier, via=via):
            tier.cluster.run(
                call_with_retries(
                    tier.cluster.sim,
                    policy,
                    lambda: tier.commit_chunk_batch(part, via),
                    op="commit_chunk_batch",
                )
            )

        apply_batched(tier, via, ops, batch_size, run=run)
        tier.cluster.sim.run()  # let remaining fault windows expire
        assert_matches_model(tier, via, ops)
