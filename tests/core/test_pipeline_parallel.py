"""Engine flush pipeline: assemble -> hash -> ordered, batched commit.

These tests pin the pass's fault hygiene (an aborted pass undoes what it
committed, and a flush under injected faults converges to the same state
as a fault-free one) and that hashing stays on the simulator's thread.
"""

import threading

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, scrub_sync
from repro.faults import FaultInjector, FaultPlan
from repro.faults.errors import TransientOpError
from repro.fingerprint import fingerprint


def make_storage(**config_overrides):
    defaults = dict(chunk_size=1024, dedup_interval=0.01, hitset_period=0.5)
    defaults.update(config_overrides)
    cluster = RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32)
    return DedupedStorage(cluster, DedupConfig(**defaults), start_engine=False)


BLOCKS = [bytes([b]) * 512 for b in (7, 33, 99, 160, 255)]


def build_objects(pattern):
    """Objects assembled from shared blocks -> cross-object duplicates."""
    return {
        f"obj{i}": b"".join(BLOCKS[j % len(BLOCKS)] for j in indices)
        for i, indices in enumerate(pattern)
    }


def flush_all(storage, objects):
    for oid, data in objects.items():
        storage.write_sync(oid, data)
    storage.drain()


def assert_equivalent(storage, reference, objects):
    fps = {fingerprint(data) for data in objects.values()}
    for fp in fps:
        assert storage.tier.chunk_refcount(fp) == reference.tier.chunk_refcount(fp)
    assert storage.space_report() == reference.space_report()
    for oid, data in objects.items():
        assert storage.read_sync(oid) == data
    assert scrub_sync(storage.tier).clean


def test_default_drain_starts_no_fingerprint_threads():
    """Chunks are hashed inline: a drain adds no hashing thread."""
    storage = DedupedStorage(
        RadosCluster(num_hosts=4, osds_per_host=2, pg_num=32),
        DedupConfig(),
        start_engine=False,
    )
    for i in range(4):
        storage.write_sync(f"obj{i}", bytes([i]) * (256 * 1024))
    storage.drain()
    assert storage.tier.stage.fingerprint_ops > 0
    assert not [t.name for t in threading.enumerate() if t.name.startswith("repro-fp")]


# -- abort hygiene ------------------------------------------------------------


def test_aborted_pass_leaves_no_outstanding_futures(monkeypatch):
    """A retryable fault mid-commit leaves nothing of the pass behind.

    With ``batch_refs`` off the pass commits its refs in one-op slices;
    the fault hits the second slice, after the first committed.  The
    abort path has to undo the committed slice, and the later drain
    converges to a clean scrub.
    """
    storage = make_storage(
        batch_refs=False,
        refset_cache_entries=0,
        chunk_bloom_capacity=0,
    )
    objects = build_objects([(0, 1, 2, 3, 4, 0, 1, 2)])  # 4 dirty chunks
    for oid, data in objects.items():
        storage.write_sync(oid, data)

    tier = storage.tier
    real_commit = tier.commit_chunk_batch
    calls = {"refs": 0}

    def flaky_commit(batch, *args, **kwargs):
        if batch.ops[0][0] == "ref":
            calls["refs"] += 1
            if calls["refs"] == 2:
                raise TransientOpError(0, "commit_chunk_batch")
        return real_commit(batch, *args, **kwargs)

    monkeypatch.setattr(tier, "commit_chunk_batch", flaky_commit)
    result = storage.cluster.run(storage.engine.process_object("obj0", force=True))
    assert result == "faulted"
    assert calls["refs"] == 2  # the fault hit the second one-op slice
    assert storage.engine.stats.objects_requeued_fault == 1
    # The reference the first slice committed was released again.
    assert tier.chunk_refcount(fingerprint(objects["obj0"][:1024])) == 0

    monkeypatch.setattr(tier, "commit_chunk_batch", real_commit)
    storage.drain()
    assert storage.read_sync("obj0") == objects["obj0"]
    assert scrub_sync(tier).clean


# -- property: flush under faults == fault-free flush, any workload ---------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

object_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=len(BLOCKS) - 1),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pattern=object_strategy, fault_seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_flush_under_faults_equals_serial(pattern, fault_seed):
    """A seeded FaultPlan changes nothing observable about a flush.

    EIO windows and slow disks hit one engine's cluster while a pristine
    cluster flushes the same objects; the skip-and-requeue abort path
    must converge to the same chunk-pool state, space report, and
    readback.
    """
    faulted = make_storage()
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=2.0,
        osd_ids=list(faulted.cluster.osds),
        crash_rate=0.0,        # availability faults need recovery, not
        partition_rate=0.0,    # retry — out of scope for equivalence
        slow_rate=1.0,
        eio_rate=1.5,
    )
    FaultInjector(faulted.cluster, plan, auto_recover=True).attach()

    objects = build_objects(pattern)
    flush_all(faulted, objects)
    faulted.sim.run()  # let remaining fault windows expire
    faulted.drain()    # flush anything requeued by a faulted pass

    reference = make_storage()
    flush_all(reference, objects)
    assert_equivalent(faulted, reference, objects)
