"""Ablation — cache eviction policies under a skewed working set.

The paper uses a simple LRU cache for hot chunks (§4.3: "Various cache
algorithms could be applied here but in our experiment, we used a LRU
based approach").  This ablation quantifies the choice: a capacity-
limited cache under a hot/cold skewed read workload, comparing the
hit rate and mean read latency of LRU, LFU, and FIFO eviction.
"""


from repro.bench import KiB, build_cluster, proposed, render_table, report
from repro.sim import RngRegistry

NUM_OBJECTS = 40
OBJ_SIZE = 2 * KiB
HOT_SET = 8  # the first N objects take most of the traffic
READS = 600


def run_policy(policy: str):
    storage = proposed(
        build_cluster(),
        chunk_size=1 * KiB,
        cache_policy=policy,
        cache_capacity_bytes=HOT_SET * OBJ_SIZE,  # room for the hot set only
        hit_count_threshold=1,
        hitset_period=1_000.0,  # everything counts as hot: cache-on-flush
        # The paper's system has no chunk data cache; one here would
        # serve the cold reads too and blur the policies' hit rates.
        chunk_cache_bytes=0,
    )
    rng = RngRegistry(seed=17).stream(f"access-{policy}")
    for i in range(NUM_OBJECTS):
        storage.write_sync(f"obj{i}", bytes([i]) * OBJ_SIZE)
    storage.drain()

    latencies = []
    for _ in range(READS):
        # 80% of reads hit the hot set, 20% spread over the rest.
        if rng.random() < 0.8:
            oid = f"obj{rng.randrange(HOT_SET)}"
        else:
            oid = f"obj{HOT_SET + rng.randrange(NUM_OBJECTS - HOT_SET)}"
        t0 = storage.sim.now
        storage.read_sync(oid)
        latencies.append(storage.sim.now - t0)
        # Let the engine enforce capacity between reads.
        storage.cluster.run(storage.engine.enforce_cache_capacity())
    hits, misses = storage.tier.cache_hits, storage.tier.cache_misses
    return {
        "hit_rate": hits / (hits + misses),
        "mean_latency": sum(latencies) / len(latencies),
    }


def run_experiment():
    return {policy: run_policy(policy) for policy in ("lru", "lfu", "fifo")}


def test_ablation_cache_policy(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for policy, r in results.items():
        rows.append(
            (
                policy,
                f"{100 * r['hit_rate']:.1f}",
                f"{r['mean_latency'] * 1e3:.3f}",
            )
        )
        benchmark.extra_info[policy] = round(100 * r["hit_rate"], 1)
    report(
        render_table(
            "Ablation: cache eviction policy (80/20 skewed reads, tight cache)",
            ["policy", "cache hit rate (%)", "mean read latency (ms)"],
            rows,
            notes=["paper §4.3 uses LRU; recency-aware policies keep the hot set"],
        )
    )
    # Recency/frequency-aware policies must beat FIFO on a skewed stream.
    assert results["lru"]["hit_rate"] > results["fifo"]["hit_rate"]
    assert results["lfu"]["hit_rate"] > results["fifo"]["hit_rate"]
    # Better hit rate shows up as lower read latency.
    assert results["lru"]["mean_latency"] < results["fifo"]["mean_latency"]
