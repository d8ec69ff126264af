"""Per-stage counters for the dedup hot path.

The tier and engine keep one :class:`StageCounters` per
:class:`~repro.core.tier.DedupTier` and bump it inline as work flows
through the four hot-path stages the perf harness reports on:

* **chunking** — dirty-chunk assembly (cache reads + merge) in the
  engine;
* **fingerprint** — content hashing (count, bytes, and the wall-clock
  seconds spent inside the hash call itself);
* **ref** — chunk-pool reference traffic: logical ref/deref operations,
  the round trips (prepared commits) they cost, how many were collapsed
  into batches, and how often the RefSet LRU / negative Bloom filter
  short-circuited a lookup;
* **flush** — chunk payloads newly stored in the chunk pool.

Counters are plain ints/floats — cheap enough to stay always-on — and
live here (not in ``repro.core``) so the perf harness can snapshot and
diff them without reaching into engine internals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["StageCounters"]


@dataclass
class StageCounters:
    """Always-on counters for the dedup hot path, by stage."""

    # -- chunking: dirty chunk assembly ---------------------------------
    chunking_ops: int = 0
    chunking_bytes: int = 0

    # -- fingerprint ----------------------------------------------------
    fingerprint_ops: int = 0
    fingerprint_bytes: int = 0
    #: Wall-clock seconds inside the hash call (synchronous, so this is
    #: real host time, not simulated time).
    fingerprint_seconds: float = 0.0
    #: Digest-pool parallelism (see ``repro.fingerprint.FingerprintPool``):
    #: configured worker threads, digests fanned out, busy spans, and the
    #: busy/wall second pair whose ratio estimates achieved parallelism.
    fingerprint_workers: int = 0
    fingerprint_pool_tasks: int = 0
    fingerprint_pool_spans: int = 0
    fingerprint_pool_busy_seconds: float = 0.0
    fingerprint_pool_wall_seconds: float = 0.0

    # -- ref: chunk-pool reference traffic ------------------------------
    #: Logical reference mutations (each ref or deref counts once).
    ref_ops: int = 0
    #: Prepared commits those mutations cost (round trips).  Unbatched,
    #: this tracks ``ref_ops``; batched, it collapses toward one per
    #: placement group per pass.
    ref_commits: int = 0
    #: Batched commits (each covers >= 1 ref_ops).
    ref_batches: int = 0
    #: RefSet lookups served from the LRU without deserializing.
    refset_cache_hits: int = 0
    refset_cache_misses: int = 0
    #: Existence probes answered "definitely not stored" by the Bloom
    #: filter (the chunk-pool lookup was skipped entirely).
    bloom_negative_hits: int = 0

    # -- map: chunk-map codec traffic -----------------------------------
    #: ``load_chunk_map`` calls served from the versioned decoded-map
    #: LRU (no disk read, no deserialize).
    map_cache_hits: int = 0
    map_cache_misses: int = 0
    #: Cache entries dropped by explicit invalidation (faulted commits,
    #: GC, recovery, rebalance, deletes) — LRU evictions not included.
    map_cache_invalidations: int = 0
    #: Chunk-map entries actually serialised by commits vs. the entries
    #: the committed maps held in total.  Commits write touched entries
    #: only, keeping the first well below the second on small-I/O
    #: workloads; ``map_entries_total`` x 150 B is what rewriting every
    #: map whole would have cost.
    map_entries_serialized: int = 0
    map_entries_total: int = 0
    #: Bytes of map metadata written by commits (headers + entries).
    map_bytes_serialized: int = 0
    #: Map commits.  Every commit writes touched entries only, so
    #: ``map_commits_full`` (the removed whole-map writer) stays 0; it
    #: is kept so existing report readers find the field.
    map_commits_incremental: int = 0
    map_commits_full: int = 0

    # -- read path: fan-out, coalescing, chunk data cache ---------------
    #: Chunk-pool reads served entirely from the chunk data cache
    #: (content-addressed payload LRU; no simulated I/O at all), and the
    #: lookups that fell through to the pool.  Counted only when the
    #: cache is enabled, and folded in once per *completed* read attempt
    #: so retries never double-count.
    chunk_cache_hits: int = 0
    chunk_cache_misses: int = 0
    #: Payloads admitted past the two-hit filter / entries dropped (LRU
    #: pressure, GC reclaim, repair fences).
    chunk_cache_admissions: int = 0
    chunk_cache_evictions: int = 0
    #: Chunk-object fetches the read path issued to the pool (after the
    #: data cache, with same-chunk pieces merged).
    fanout_chunk_reads: int = 0
    #: Round trips of the read path's ``read_batch`` calls (one per
    #: distinct placement group in each batch), and the chunk fetches
    #: they carried (fanout_batched_chunks / fanout_batches = merge
    #: factor).
    fanout_batches: int = 0
    fanout_batched_chunks: int = 0

    # -- read path anomalies --------------------------------------------
    #: Chunk segments that came back short from the substrate and were
    #: zero-padded to the expected length (see ``io_path._read_once``).
    read_short_segments: int = 0

    # -- flush: new chunk payloads --------------------------------------
    flush_ops: int = 0
    flush_bytes: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy (JSON-ready)."""
        return asdict(self)

    def diff(self, since: "StageCounters") -> dict:
        """Counter deltas relative to an earlier snapshot."""
        now, then = asdict(self), asdict(since)
        return {k: now[k] - then[k] for k in now}

    def copy(self) -> "StageCounters":
        """An independent snapshot object."""
        return StageCounters(**asdict(self))
