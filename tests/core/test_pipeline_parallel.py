"""Engine flush pipeline with a parallel fingerprint stage.

The flush pipeline is chunk -> sharded fingerprint fan-out -> ordered
gather -> per-PG batched commit.  These tests pin the determinism
contract (``fingerprint_workers > 1`` is observationally identical to
serial hashing, including under injected faults) and the drain/abort
hygiene (no FingerprintPool future may outlive the pass that staged it).
"""

import pytest

from repro.cluster import RadosCluster
from repro.core import DedupConfig, DedupedStorage, scrub_sync
from repro.faults import FaultInjector, FaultPlan
from repro.faults.errors import TransientOpError
from repro.fingerprint import fingerprint


def make_storage(fingerprint_workers=1, **config_overrides):
    defaults = dict(
        chunk_size=1024,
        dedup_interval=0.01,
        hitset_period=0.5,
        fingerprint_workers=fingerprint_workers,
    )
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


def assert_equivalent(parallel, serial, objects):
    fps = {fingerprint(data) for data in objects.values()}
    for fp in fps:
        assert parallel.tier.chunk_refcount(fp) == serial.tier.chunk_refcount(fp)
    assert parallel.space_report() == serial.space_report()
    for oid, data in objects.items():
        assert parallel.read_sync(oid) == data
    assert scrub_sync(parallel.tier).clean


def test_parallel_fingerprint_matches_serial():
    objects = build_objects(
        [(0, 1, 2, 3), (0, 1), (2, 3, 4), (4, 4, 0), (1, 2, 3, 4)]
    )
    parallel = make_storage(fingerprint_workers=4)
    serial = make_storage(fingerprint_workers=1)
    assert parallel.engine.fingerprint_pool.parallel
    assert not serial.engine.fingerprint_pool.parallel
    flush_all(parallel, objects)
    flush_all(serial, objects)
    assert_equivalent(parallel, serial, objects)
    # The parallel side actually routed digests through the pool.
    assert parallel.engine.fingerprint_pool.stats.tasks > 0
    assert parallel.tier.stage.fingerprint_workers == 4


def test_start_overrides_fingerprint_workers():
    storage = make_storage(fingerprint_workers=1)
    storage.engine.start(fingerprint_workers=3)
    try:
        assert storage.engine.fingerprint_pool.workers == 3
    finally:
        storage.engine.stop()
        storage.engine.set_fingerprint_workers(None)
    # Resetting drops back to the config value.
    assert storage.engine.fingerprint_pool.workers == 1


# -- abort hygiene: no future outlives its pass -----------------------------


def test_aborted_pass_leaves_no_outstanding_futures(monkeypatch):
    """A retryable fault mid-commit must settle every staged future.

    With ``batch_refs`` off the pass commits its refs in one-op slices;
    the fault hits the second slice, after the first committed.  The
    abort path (``_abandon_staged``) has to settle every handle so the
    pool holds no chunk payload from the dead pass, the committed slice
    is undone, and the later drain converges to a clean scrub.
    """
    storage = make_storage(
        fingerprint_workers=4,
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
    assert storage.engine.fingerprint_pool.outstanding == 0
    assert storage.engine.stats.objects_requeued_fault == 1

    monkeypatch.setattr(tier, "commit_chunk_batch", real_commit)
    storage.drain()
    assert storage.engine.fingerprint_pool.outstanding == 0
    assert storage.read_sync("obj0") == objects["obj0"]
    assert scrub_sync(tier).clean


def test_drain_quiesces_orphaned_futures():
    """drain() consumes futures nobody gathered before running GC."""
    storage = make_storage(fingerprint_workers=4)
    storage.write_sync("obj0", b"q" * 4096)
    pool = storage.engine.fingerprint_pool
    pool.submit_many([b"orphan-a" * 400, b"orphan-b" * 400])
    assert pool.outstanding == 2
    storage.drain()
    assert pool.outstanding == 0
    assert scrub_sync(storage.tier).clean


# -- property: parallel+faults == serial, any workload ----------------------

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
    """Workers>1 plus a seeded FaultPlan changes nothing observable.

    EIO windows and slow disks hit the parallel engine's cluster while a
    pristine cluster flushes the same objects with inline hashing; the
    skip-and-requeue abort path plus the ordered gather must converge to
    the same chunk-pool state, space report, and readback.
    """
    parallel = make_storage(fingerprint_workers=4)
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=2.0,
        osd_ids=list(parallel.cluster.osds),
        crash_rate=0.0,        # availability faults need recovery, not
        partition_rate=0.0,    # retry — out of scope for equivalence
        slow_rate=1.0,
        eio_rate=1.5,
    )
    FaultInjector(parallel.cluster, plan, auto_recover=True).attach()

    objects = build_objects(pattern)
    flush_all(parallel, objects)
    parallel.sim.run()  # let remaining fault windows expire
    parallel.drain()    # flush anything requeued by a faulted pass

    serial = make_storage(fingerprint_workers=1)
    flush_all(serial, objects)
    assert_equivalent(parallel, serial, objects)
