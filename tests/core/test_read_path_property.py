"""Property tests for the read-path engine (batched fan-out + chunk
data cache).

For ANY random mix of overwrites, drains, and (offset, length) reads,
a storage with the chunk data cache enabled must return exactly the
bytes a cache-free storage returns — which are exactly the bytes a
plain shadow buffer predicts.  A second property drives
the enabled storage through seeded EIO/slow-disk fault plans: the
internal read retries must neither tear segments nor double-count
chunk-cache lookups.

Uses Hypothesis when available (CI installs it); skipped otherwise.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cluster import RadosCluster  # noqa: E402
from repro.core import DedupConfig, DedupedStorage  # noqa: E402

KiB = 1024
CHUNK = 16 * KiB
OBJECT_SIZE = 4 * CHUNK
OBJECTS = 3

#: The chunk data cache off (mirrors the perf harness's UNBATCHED read
#: overrides).
DISABLED = dict(chunk_cache_bytes=0)


def build_storage(enabled: bool, **extra) -> DedupedStorage:
    cluster = RadosCluster(num_hosts=2, osds_per_host=2, pg_num=8)
    overrides = dict(chunk_size=CHUNK, cache_on_flush=False)
    if not enabled:
        overrides.update(DISABLED)
    overrides.update(extra)
    return DedupedStorage(cluster, DedupConfig(**overrides), start_engine=False)


def base_payload(tone: int) -> bytes:
    # Small alphabet => heavy cross-object dedup, so reads genuinely
    # share chunks (the case the cache and coalescing exist for).
    return b"".join(bytes([(tone + i) % 5]) * CHUNK for i in range(4))


#: An op is a write (object, offset, length, fill byte), a read
#: (object, offset, length), or a dedup drain.
op_strategy = st.one_of(
    st.tuples(
        st.just("w"),
        st.integers(0, OBJECTS - 1),
        st.integers(0, OBJECT_SIZE - 1),
        st.integers(1, 2 * CHUNK),
        st.integers(0, 255),
    ),
    st.tuples(
        st.just("r"),
        st.integers(0, OBJECTS - 1),
        st.integers(0, OBJECT_SIZE - 1),
        st.integers(1, OBJECT_SIZE),
    ),
    st.tuples(st.just("d")),
)


def apply_ops(storage: DedupedStorage, tone: int, ops) -> list:
    """Run the op sequence; returns every read's bytes, in order."""
    shadow = {}
    for obj in range(OBJECTS):
        payload = base_payload(tone + obj)
        storage.write_sync(f"p.o{obj}", payload)
        shadow[obj] = bytearray(payload)
    storage.drain()

    reads = []
    for op in ops:
        if op[0] == "w":
            _, obj, off, length, fill = op
            length = min(length, OBJECT_SIZE - off)
            patch = bytes([fill]) * length
            storage.write_sync(f"p.o{obj}", patch, offset=off)
            shadow[obj][off : off + length] = patch
        elif op[0] == "r":
            _, obj, off, length = op
            length = min(length, OBJECT_SIZE - off)
            data = storage.read_sync(f"p.o{obj}", offset=off, length=length)
            assert data == bytes(shadow[obj][off : off + length]), (
                f"read {obj}@{off}+{length} diverged from shadow"
            )
            reads.append(data)
        else:
            storage.drain()
    storage.drain()
    # Full readback after the final drain (chunk-pool data only).
    for obj in range(OBJECTS):
        data = storage.read_sync(f"p.o{obj}")
        assert data == bytes(shadow[obj])
        reads.append(data)
    return reads


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tone=st.integers(min_value=0, max_value=50),
    ops=st.lists(op_strategy, min_size=1, max_size=20),
)
def test_read_path_layers_do_not_change_any_readback(tone, ops):
    enabled_reads = apply_ops(build_storage(enabled=True), tone, ops)
    disabled_reads = apply_ops(build_storage(enabled=False), tone, ops)
    assert enabled_reads == disabled_reads


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tone=st.integers(min_value=0, max_value=50),
    ops=st.lists(op_strategy, min_size=1, max_size=16),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_read_path_correct_and_counts_stable_under_faults(tone, ops, fault_seed):
    """EIO windows and slow disks during fan-out reads change nothing.

    The read path retries internally; retried attempts must not return
    torn segments (every read still matches the shadow buffer) and must
    not double-count cache lookups: hit+miss totals are folded once per
    *completed* attempt, so the faulted run's lookup total must equal a
    fault-free run's (the hit/miss split may shift — an aborted attempt
    can legitimately admit a chunk the final attempt then hits).
    """
    from repro.faults import FaultInjector, FaultPlan

    clean = build_storage(enabled=True)
    clean_reads = apply_ops(clean, tone, ops)

    faulted = build_storage(enabled=True)
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=1.0,
        osd_ids=list(faulted.cluster.osds),
        crash_rate=0.0,      # availability faults need recovery, not
        partition_rate=0.0,  # retry — out of scope for this property
        slow_rate=2.0,
        eio_rate=3.0,
    )
    FaultInjector(faulted.cluster, plan, auto_recover=True).attach()
    faulted_reads = apply_ops(faulted, tone, ops)

    assert faulted_reads == clean_reads
    c, f = clean.tier.stage, faulted.tier.stage
    assert (f.chunk_cache_hits + f.chunk_cache_misses) == (
        c.chunk_cache_hits + c.chunk_cache_misses
    ), "retries double- or under-counted chunk-cache lookups"
