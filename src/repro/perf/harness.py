"""Wall-clock performance harness for the dedup hot path (``repro perf``).

Runs fixed-seed fio and backup workloads twice — once with the hot-path
optimisations off (ref commits in one-op slices, no RefSet cache, no
negative Bloom filter: the per-op baseline) and once with them on — and
measures real host time, simulated time, and the per-stage counters
(:class:`~repro.perf.stages.StageCounters`) for each.  A third,
simulator-free ``pipeline-chunk-fingerprint`` workload isolates the
chunk → fingerprint pipeline itself: reference boundary scan vs the
NumPy-vectorized scan, both followed by the same inline hashing.
The ``read-sequential-deduped`` workload (and a timed read phase on
``fio-small-random``) isolates the read path: the batched parallel
fetch with no chunk data cache (what shipped before the cache) vs the
same fetch with the hotness-aware chunk data cache in front of it.

Every pair is also *verified*: both modes must produce byte-identical
read-back, identical chunk refcounts, and the same (clean) scrub
verdict.  A speedup that corrupts data is a bug, not a win.

The result is written as ``BENCH_perf.json``; CI's perf-smoke job runs
``repro perf --fast --baseline benchmarks/baselines/perf_baseline.json``
and fails on a >25 % calibrated ops/s regression (or a speedup below
the committed floor).  Wall-clock numbers are normalised by a machine
score (a fixed hashing loop) so baselines recorded on one machine
remain meaningful on another; the batched/unbatched *speedup* is a
same-machine ratio and needs no normalisation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from collections import Counter

from ..bench.harness import KiB, MiB, build_cluster, proposed
from ..chunking import GearChunker, validate_chunking
from ..chunking._vector import HAVE_NUMPY
from ..core.objects import CHUNK_MAP_ENTRY_BYTES
from ..core.scrub import scrub_sync
from ..fingerprint import FingerprintPool
from ..obs import stage_rollup
from ..workloads import BackupSpec, BackupStream, ContentGenerator, FioJobSpec, FioRunner
from .stages import StageCounters

__all__ = [
    "FAST",
    "ModeResult",
    "WorkloadResult",
    "run_perf",
    "compare_to_baseline",
    "render_report",
    "write_report",
]

#: Honors the benchmark suite's fast-mode switch.
FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

#: Reference machine score the committed baseline was recorded against;
#: calibrated ops/s = ops/s * (REFERENCE_SCORE / this machine's score).
REFERENCE_SCORE = 1000.0

#: Config overrides that turn every hot-path optimisation off — the
#: pre-optimisation per-op baseline (ref commits in slices of one op,
#: no RefSet cache, no negative Bloom filter, no decoded-map cache, and
#: no chunk data cache: reads keep their one batched parallel fetch).
UNBATCHED = dict(
    batch_refs=False,
    refset_cache_entries=0,
    chunk_bloom_capacity=0,
    map_cache_entries=0,
    chunk_cache_bytes=0,
)


def machine_score(repeats: int = 3) -> float:
    """Relative speed of this machine (bigger = faster).

    Best-of-N timing of a fixed pure-Python loop: the simulation's host
    cost is interpreter-bound (event dispatch, generators), so an
    interpreter-speed proxy — not a C-library hash loop — is what makes
    absolute wall-clock numbers comparable across machines.
    """
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i & 7
        best = min(best, perf_counter() - start)
    return 2.0 / best  # mega-iterations per second


@dataclass
class ModeResult:
    """One workload measured in one mode (batched or unbatched).

    Two timed windows: the whole run (foreground writes + dedup
    drains, ``wall_seconds``) and the dedup drains alone
    (``dedup_wall_seconds``).  The foreground write path is identical
    in both modes, so the end-to-end ratio dilutes the hot path this
    PR optimises; the gated metric is the dedup-phase rate.
    """

    mode: str
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    ops: int = 0
    #: Host seconds spent inside the dedup drains only.
    dedup_wall_seconds: float = 0.0
    #: Chunks the engine processed (flushed + deduped) in those drains.
    dedup_ops: int = 0
    #: Host seconds spent inside the timed read phase (0 when the
    #: workload has none) and the object reads it issued.
    read_wall_seconds: float = 0.0
    read_ops: int = 0
    stages: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific extras (e.g. the re-read chunk-cache hit rate);
    #: serialised only when non-empty.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-stage span rollup ({stage: {count, seconds, mean, max}} on the
    #: sim clock) when the run was traced; empty otherwise.
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Digest of the full read-back, refcount map, and scrub verdict —
    #: compared across modes by the verification step.
    readback_digest: str = ""
    refcounts: Dict[str, int] = field(default_factory=dict)
    scrub_clean: bool = False

    @property
    def ops_per_sec(self) -> float:
        """End-to-end wall-clock operation rate (host time)."""
        return self.ops / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def dedup_ops_per_sec(self) -> float:
        """Dedup hot-path rate: engine chunk ops per host second."""
        if not self.dedup_wall_seconds:
            return 0.0
        return self.dedup_ops / self.dedup_wall_seconds

    @property
    def read_ops_per_sec(self) -> float:
        """Read-path rate: object reads per host second in the read phase."""
        if not self.read_wall_seconds:
            return 0.0
        return self.read_ops / self.read_wall_seconds

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "ops": self.ops,
            "ops_per_sec": self.ops_per_sec,
            "dedup_wall_seconds": self.dedup_wall_seconds,
            "dedup_ops": self.dedup_ops,
            "dedup_ops_per_sec": self.dedup_ops_per_sec,
            "read_wall_seconds": self.read_wall_seconds,
            "read_ops": self.read_ops,
            "read_ops_per_sec": self.read_ops_per_sec,
            "scrub_clean": self.scrub_clean,
            "readback_digest": self.readback_digest,
            "stages": self.stages,
        }
        # Only attach the keys that carry data: an untraced run has no
        # span rollup, and ``"spans": {}`` in BENCH_perf.json used to
        # read as "traced but recorded nothing".
        if self.spans:
            out["spans"] = self.spans
        if self.extra:
            out["extra"] = self.extra
        return out


@dataclass
class WorkloadResult:
    """Batched-vs-unbatched measurement of one workload."""

    name: str
    unbatched: ModeResult
    batched: ModeResult

    @property
    def speedup(self) -> float:
        """Batched over unbatched dedup-phase ops/s (same machine)."""
        if self.unbatched.dedup_ops_per_sec == 0:
            return 0.0
        return self.batched.dedup_ops_per_sec / self.unbatched.dedup_ops_per_sec

    @property
    def end_to_end_speedup(self) -> float:
        """Batched over unbatched whole-run ops/s (incl. foreground)."""
        if self.unbatched.ops_per_sec == 0:
            return 0.0
        return self.batched.ops_per_sec / self.unbatched.ops_per_sec

    @property
    def read_speedup(self) -> Optional[float]:
        """Batched over unbatched read-phase ops/s; None when the
        workload has no timed read phase."""
        if not self.unbatched.read_wall_seconds or not self.batched.read_wall_seconds:
            return None
        if self.unbatched.read_ops_per_sec == 0:
            return None
        return self.batched.read_ops_per_sec / self.unbatched.read_ops_per_sec

    @property
    def verified(self) -> bool:
        """Byte-identical read-back, identical refcounts, both scrubs clean."""
        return (
            self.batched.readback_digest == self.unbatched.readback_digest
            and self.batched.refcounts == self.unbatched.refcounts
            and self.batched.scrub_clean
            and self.unbatched.scrub_clean
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unbatched": self.unbatched.to_dict(),
            "batched": self.batched.to_dict(),
            "speedup": self.speedup,
            "end_to_end_speedup": self.end_to_end_speedup,
            "read_speedup": self.read_speedup,
            "verify": {
                "readback_identical": self.batched.readback_digest
                == self.unbatched.readback_digest,
                "refcounts_identical": self.batched.refcounts
                == self.unbatched.refcounts,
                "scrub_clean_both": self.batched.scrub_clean
                and self.unbatched.scrub_clean,
            },
        }


def _collect(storage, mode: str, wall: float, sim0: float, ops: int,
             dedup_wall: float, readback: bytes,
             read_wall: float = 0.0, read_ops: int = 0,
             extra: Optional[Dict[str, float]] = None) -> ModeResult:
    tier = storage.tier
    stats = storage.engine.stats
    result = ModeResult(
        mode=mode,
        wall_seconds=wall,
        sim_seconds=storage.sim.now - sim0,
        ops=ops,
        dedup_wall_seconds=dedup_wall,
        dedup_ops=stats.chunks_flushed + stats.chunks_deduped,
        read_wall_seconds=read_wall,
        read_ops=read_ops,
        stages=tier.stage.snapshot(),
        extra=dict(extra or {}),
        readback_digest=hashlib.sha1(readback).hexdigest(),
    )
    if tier.tracer.enabled:
        result.spans = stage_rollup(tier.tracer.to_records())
    # Verification is outside the timed window on purpose.
    result.refcounts = {
        cid: tier.chunk_refcount(cid)
        for cid in storage.cluster.list_objects(tier.chunk_pool)
    }
    result.scrub_clean = scrub_sync(tier).clean
    return result


def _run_fio_mode(
    mode: str, overrides: dict, seed: int, fast: bool, trace: bool = False
) -> ModeResult:
    """Small-random fio: chunk-aligned random writes, heavy dedup, two
    write+drain cycles (the second hits existing chunks, exercising the
    ref-append path the batching collapses), then a timed random-read
    phase over the deduplicated objects (exercising the batched read
    fan-out, and the chunk data cache on the second pass)."""
    if trace:
        overrides = dict(overrides, trace_ops=True)
    spec = FioJobSpec(
        pattern="randwrite",
        block_size=32 * KiB,
        object_size=512 * KiB,
        file_size=(2 if fast else 4) * MiB,
        numjobs=2,
        iodepth=4,
        dedupe_percentage=90.0,
        seed=seed,
    )
    # Wide objects (16 chunks) over few placement groups: a pass's
    # chunks genuinely share PGs, so the batch merges into fewer
    # prepared transactions.  With the default 64 PGs, 8 chunks almost
    # never collide and a batch degenerates to per-PG singletons.
    # ``cache_on_flush=False`` keeps flushed chunk payloads out of the
    # foreground object cache so the read phase actually exercises the
    # chunk-pool read path rather than the metadata tier's local cache.
    storage = proposed(
        build_cluster(pg_num=4), start_engine=False,
        **dict(overrides, cache_on_flush=False),
    )
    runner = FioRunner(storage, spec)
    sim0 = storage.sim.now
    started = perf_counter()
    total_ops = 0
    dedup_wall = 0.0
    for _cycle in range(2):
        fio = runner.run()
        total_ops += fio.total_ops
        drain_started = perf_counter()
        storage.drain()
        dedup_wall += perf_counter() - drain_started
    total_ops += (
        storage.engine.stats.chunks_flushed + storage.engine.stats.chunks_deduped
    )
    # Timed read phase: two full sweeps over every fio object.  The
    # first is cold (batched fan-out against the chunk pool); the
    # second re-reads the same chunks, so with the data cache enabled
    # most fetches never reach the pool.
    names = [
        f"fio.j{job}.o{obj}"
        for job in range(spec.numjobs)
        for obj in range(spec.file_size // spec.object_size)
    ]
    read_ops = 0
    pieces: List[bytes] = []
    read_started = perf_counter()
    for _pass in range(2):
        pieces = [storage.read_sync(name) for name in names]
        read_ops += len(names)
    read_wall = perf_counter() - read_started
    total_ops += read_ops
    wall = perf_counter() - started
    readback = b"".join(pieces)
    return _collect(
        storage, mode, wall, sim0, total_ops, dedup_wall, readback,
        read_wall=read_wall, read_ops=read_ops,
    )


def _run_backup_mode(
    mode: str, overrides: dict, seed: int, fast: bool, trace: bool = False
) -> ModeResult:
    """Incremental backup: each generation is mostly duplicate blocks of
    the previous one, drained between generations."""
    if trace:
        overrides = dict(overrides, trace_ops=True)
    spec = BackupSpec(
        dataset_size=(1 if fast else 2) * MiB,
        block_size=512 * KiB,  # 16 chunks per backup object
        mutation_rate=0.1,
        generations=2 if fast else 3,
        seed=seed,
    )
    storage = proposed(build_cluster(pg_num=4), start_engine=False, **overrides)
    stream = BackupStream(spec)
    sim0 = storage.sim.now
    started = perf_counter()
    dedup_wall = 0.0
    for gen in range(spec.generations):
        stream.write_generation(storage, gen)
        drain_started = perf_counter()
        storage.drain()
        dedup_wall += perf_counter() - drain_started
    ops = spec.blocks * spec.generations + (
        storage.engine.stats.chunks_flushed + storage.engine.stats.chunks_deduped
    )
    wall = perf_counter() - started
    readback = b"".join(
        stream.restore_generation(storage, gen) for gen in range(spec.generations)
    )
    return _collect(storage, mode, wall, sim0, ops, dedup_wall, readback)


def _run_pipeline_mode(
    mode: str, overrides: dict, seed: int, fast: bool, trace: bool = False
) -> ModeResult:
    """Chunk → fingerprint pipeline in isolation (no simulator, so
    ``trace`` is accepted but has nothing to record).

    Measures both stages on a seeded content stream: ``unbatched`` runs
    the pure-Python reference boundary scan and ``batched`` the
    NumPy-vectorized scan when available; both hash inline.
    Verification doubles as an end-to-end equivalence check: both modes
    must produce identical (offset, length, digest) streams, which is
    exactly the byte-identical-boundaries invariant.
    """
    total = (4 if fast else 16) * MiB
    gen = ContentGenerator(seed=seed, dedupe_ratio=0.5)
    data = b"".join(gen.block(64 * KiB) for _ in range(total // (64 * KiB)))
    chunker = GearChunker(avg_size=8 * KiB, vectorized=HAVE_NUMPY and mode == "batched")
    pool = FingerprintPool()
    started = perf_counter()
    spans = chunker.chunk(data)
    digests = pool.submit_many(span.as_bytes() for span in spans)
    wall = perf_counter() - started
    validate_chunking(data, spans)
    readback = hashlib.sha1()
    for span, digest in zip(spans, digests):
        readback.update(f"{span.offset}:{span.length}:{digest};".encode())
    stage = StageCounters(
        chunking_ops=len(spans),
        chunking_bytes=total,
        fingerprint_ops=len(spans),
        fingerprint_bytes=total,
        fingerprint_seconds=pool.stats.busy_seconds,
        fingerprint_pool_busy_seconds=pool.stats.busy_seconds,
        fingerprint_pool_wall_seconds=pool.stats.wall_seconds,
    )
    return ModeResult(
        mode=mode,
        wall_seconds=wall,
        sim_seconds=0.0,
        ops=len(spans),
        dedup_wall_seconds=wall,
        dedup_ops=len(spans),
        stages=stage.snapshot(),
        readback_digest=readback.hexdigest(),
        refcounts=dict(Counter(digests)),
        scrub_clean=True,  # validate_chunking() above did not raise
    )


def _run_metadata_mode(
    mode: str, overrides: dict, seed: int, fast: bool, trace: bool = False
) -> ModeResult:
    """Small I/O against wide chunk maps: the per-op metadata tax.

    8 KiB chunks over 512 KiB objects give 64-entry maps; after an
    initial full write + drain, every cycle issues one sub-chunk write
    and one small read per object and drains the single dirty chunk.
    Without the versioned map cache each of those ops decodes the whole
    map; with it, the decode is a cache hit.  Either way a commit
    serialises only the touched entry, against the 64 a whole-map
    rewrite would cost (the map-bytes gate)."""
    if trace:
        overrides = dict(overrides, trace_ops=True)
    chunk = 8 * KiB
    object_size = 512 * KiB
    nchunks = object_size // chunk
    objects = 2 if fast else 4
    cycles = 6 if fast else 12
    storage = proposed(
        build_cluster(pg_num=4), start_engine=False,
        **dict(overrides, chunk_size=chunk),
    )
    gen = ContentGenerator(seed=seed, dedupe_ratio=0.5)
    payloads = [gen.block(object_size) for _ in range(objects)]
    sim0 = storage.sim.now
    started = perf_counter()
    ops = 0
    dedup_wall = 0.0
    for obj in range(objects):
        storage.write_sync(f"meta.o{obj}", payloads[obj])
        ops += 1
    drain_started = perf_counter()
    storage.drain()
    dedup_wall += perf_counter() - drain_started
    patch = bytes(64)
    for cycle in range(cycles):
        for obj in range(objects):
            # Deterministic stride over the chunk indices: every cycle
            # dirties exactly one of the 64 entries.
            idx = (cycle * 7 + obj * 3) % nchunks
            storage.write_sync(f"meta.o{obj}", patch, offset=idx * chunk + 17)
            data = storage.read_sync(f"meta.o{obj}", offset=idx * chunk, length=chunk)
            assert len(data) == chunk
            ops += 2
        drain_started = perf_counter()
        storage.drain()
        dedup_wall += perf_counter() - drain_started
    ops += (
        storage.engine.stats.chunks_flushed + storage.engine.stats.chunks_deduped
    )
    wall = perf_counter() - started
    readback = b"".join(
        storage.read_sync(f"meta.o{obj}") for obj in range(objects)
    )
    return _collect(storage, mode, wall, sim0, ops, dedup_wall, readback)


def _run_read_mode(
    mode: str, overrides: dict, seed: int, fast: bool, trace: bool = False
) -> ModeResult:
    """Sequential re-reads of a deduplicated dataset: the read path in
    isolation.

    Writes a 50 %-duplicate dataset of wide (16-chunk) objects, drains
    it once, then runs four timed sequential read sweeps: a cold pass
    (every chunk fetch reaches the pool; first sightings land on the
    cache's ghost list), a warm-up pass (second sightings get admitted),
    and two measured re-read passes whose chunk-cache hit rate is
    captured into ``extra["reread_chunk_cache_hit_rate"]``.
    ``cache_on_flush=False`` and ``selective_dedup=False`` force every
    read through the chunk pool so the batched fan-out and the data
    cache are the only things between the client and the OSDs.
    """
    if trace:
        overrides = dict(overrides, trace_ops=True)
    object_size = 512 * KiB
    objects = 4 if fast else 8
    storage = proposed(
        build_cluster(pg_num=4), start_engine=False,
        **dict(overrides, cache_on_flush=False, selective_dedup=False),
    )
    gen = ContentGenerator(seed=seed, dedupe_ratio=0.5)
    payloads = [gen.block(object_size) for _ in range(objects)]
    sim0 = storage.sim.now
    started = perf_counter()
    ops = 0
    for obj in range(objects):
        storage.write_sync(f"read.o{obj}", payloads[obj])
        ops += 1
    drain_started = perf_counter()
    storage.drain()
    dedup_wall = perf_counter() - drain_started
    tier = storage.tier
    read_ops = 0
    read_started = perf_counter()
    for _pass in range(2):  # cold + warm-up
        for obj in range(objects):
            storage.read_sync(f"read.o{obj}")
            read_ops += 1
    stage_before = tier.stage.copy()
    pieces: List[bytes] = []
    for _pass in range(2):  # measured re-reads
        pieces = [storage.read_sync(f"read.o{obj}") for obj in range(objects)]
        read_ops += objects
    read_wall = perf_counter() - read_started
    reread = tier.stage.diff(stage_before)
    hits = reread.get("chunk_cache_hits", 0)
    misses = reread.get("chunk_cache_misses", 0)
    extra: Dict[str, float] = {}
    if hits + misses:
        extra["reread_chunk_cache_hit_rate"] = hits / (hits + misses)
    ops += read_ops + (
        storage.engine.stats.chunks_flushed + storage.engine.stats.chunks_deduped
    )
    wall = perf_counter() - started
    readback = b"".join(pieces)
    return _collect(
        storage, mode, wall, sim0, ops, dedup_wall, readback,
        read_wall=read_wall, read_ops=read_ops, extra=extra,
    )


WORKLOADS = {
    "fio-small-random": _run_fio_mode,
    "backup-incremental": _run_backup_mode,
    "metadata-small-io": _run_metadata_mode,
    "read-sequential-deduped": _run_read_mode,
    "pipeline-chunk-fingerprint": _run_pipeline_mode,
}


def run_perf(
    fast: Optional[bool] = None,
    seed: int = 0,
    repeats: int = 5,
    trace: bool = False,
) -> dict:
    """Run every workload in both modes; returns the report dict.

    Each (workload, mode) pair is measured ``repeats`` times with the
    modes interleaved (u, b, u, b, ...) and the fastest wall time kept:
    the simulation is deterministic, so every repeat does identical
    work, and scheduler jitter or allocator state only ever slow a run
    down — the minimum is the least-noise estimate of the host cost,
    and interleaving keeps slow drift from biasing one mode.

    ``trace`` runs the simulated workloads with op tracing enabled
    (``DedupConfig.trace_ops``), attaching a per-stage span rollup to
    each ``ModeResult`` — this is the leg the obs-overhead CI gate
    measures against the untraced baseline.
    """
    fast = FAST if fast is None else fast
    score = machine_score()
    workloads: List[WorkloadResult] = []
    for name, runner in WORKLOADS.items():
        unbatched: Optional[ModeResult] = None
        batched: Optional[ModeResult] = None
        for _ in range(repeats):
            u = runner("unbatched", UNBATCHED, seed, fast, trace)
            if unbatched is None or u.dedup_wall_seconds < unbatched.dedup_wall_seconds:
                unbatched = u
            b = runner("batched", {}, seed, fast, trace)
            if batched is None or b.dedup_wall_seconds < batched.dedup_wall_seconds:
                batched = b
        workloads.append(WorkloadResult(name, unbatched, batched))
    calibration = REFERENCE_SCORE / score
    by_name = {w.name: w for w in workloads}
    meta = by_name.get("metadata-small-io")
    map_cache_hit_rate = None
    if meta is not None:
        hits = meta.batched.stages.get("map_cache_hits", 0)
        misses = meta.batched.stages.get("map_cache_misses", 0)
        if hits + misses:
            map_cache_hit_rate = hits / (hits + misses)
    read_wl = by_name.get("read-sequential-deduped")
    chunk_cache_hit_rate = None
    if read_wl is not None:
        chunk_cache_hit_rate = read_wl.batched.extra.get(
            "reread_chunk_cache_hit_rate"
        )
    read_speedups = [
        w.read_speedup for w in workloads if w.read_speedup is not None
    ]
    report = {
        "schema": 1,
        "fast": fast,
        "seed": seed,
        "trace": trace,
        "machine_score": score,
        "workloads": {w.name: w.to_dict() for w in workloads},
        "summary": {
            "min_speedup": min(w.speedup for w in workloads),
            #: Smallest read-phase speedup across the workloads that
            #: have a timed read phase (None when none do).
            "min_read_speedup": min(read_speedups) if read_speedups else None,
            "all_verified": all(w.verified for w in workloads),
            #: Decoded-map cache hit rate on the metadata-small-io
            #: workload's optimised mode (None when not measurable).
            "map_cache_hit_rate": map_cache_hit_rate,
            #: Chunk data cache hit rate over the read workload's
            #: measured re-read passes (None when not measurable).
            "chunk_cache_hit_rate": chunk_cache_hit_rate,
            # Dedup-phase ops/s normalised to the reference machine, per
            # workload (what the CI baseline compares against).
            "calibrated_ops_per_sec": {
                w.name: w.batched.dedup_ops_per_sec * calibration
                for w in workloads
            },
        },
    }
    return report


def _whole_map_bytes(stages: Dict[str, float]) -> int:
    """Map bytes the run's commits would have serialised rewriting each
    map whole: every committed entry at the paper's 150 B (§5)."""
    return int(stages.get("map_entries_total", 0)) * CHUNK_MAP_ENTRY_BYTES


def compare_to_baseline(
    report: dict, baseline: dict, max_regression: float = 0.25
) -> List[str]:
    """Gate a report against a committed baseline; returns failures.

    Fails on a calibrated ops/s regression beyond ``max_regression``
    on any workload the baseline covers, on a speedup below the
    baseline's ``min_speedup_floor``, or on failed verification.
    An empty list means the gate passes.
    """
    failures: List[str] = []
    if not report["summary"]["all_verified"]:
        failures.append("verification failed: modes disagree or scrub unclean")
    floor = baseline.get("min_speedup_floor")
    if floor is not None and report["summary"]["min_speedup"] < floor:
        failures.append(
            f"speedup {report['summary']['min_speedup']:.2f}x below "
            f"required floor {floor:.2f}x"
        )
    read_floor = baseline.get("min_read_speedup_floor")
    if read_floor is not None:
        min_read = report["summary"].get("min_read_speedup")
        if min_read is None or min_read < read_floor:
            shown = "n/a" if min_read is None else f"{min_read:.2f}x"
            failures.append(
                f"read speedup {shown} below required floor {read_floor:.2f}x"
            )
    if "read-sequential-deduped" in report.get("workloads", {}):
        cache_rate = report["summary"].get("chunk_cache_hit_rate")
        if cache_rate is None or cache_rate <= 0.6:
            shown = "n/a" if cache_rate is None else f"{cache_rate:.1%}"
            failures.append(
                f"read-sequential-deduped: chunk cache re-read hit rate "
                f"{shown} not above required 60%"
            )
    meta = report.get("workloads", {}).get("metadata-small-io")
    if meta is not None:
        hit_rate = report["summary"].get("map_cache_hit_rate")
        if hit_rate is None or hit_rate <= 0.8:
            shown = "n/a" if hit_rate is None else f"{hit_rate:.1%}"
            failures.append(
                f"metadata-small-io: map cache hit rate {shown} "
                f"not above required 80%"
            )
        # Touched-entry commits must beat rewriting every map whole on
        # actual serialised metadata bytes, not just wall time.
        stages = meta["batched"]["stages"]
        batched_bytes = stages.get("map_bytes_serialized", 0)
        whole_bytes = _whole_map_bytes(stages)
        if batched_bytes >= whole_bytes:
            failures.append(
                f"metadata-small-io: incremental commits serialized "
                f"{batched_bytes} map bytes, not below whole-map "
                f"size {whole_bytes}"
            )
    base_rates = baseline.get("calibrated_ops_per_sec", {})
    for name, base_rate in base_rates.items():
        rate = report["summary"]["calibrated_ops_per_sec"].get(name)
        if rate is None:
            failures.append(f"workload {name!r} missing from report")
            continue
        if rate < base_rate * (1.0 - max_regression):
            failures.append(
                f"{name}: calibrated ops/s {rate:.0f} regressed more than "
                f"{max_regression:.0%} below baseline {base_rate:.0f}"
            )
    return failures


def render_report(report: dict) -> List[str]:
    """Human-readable summary lines for the CLI."""
    lines = [
        f"perf harness (fast={report['fast']}, seed={report['seed']}, "
        f"machine score {report['machine_score']:.0f})"
    ]
    for name, w in report["workloads"].items():
        u, b = w["unbatched"], w["batched"]
        lines.append(
            f"  {name}: dedup {u['dedup_ops_per_sec']:.0f} -> "
            f"{b['dedup_ops_per_sec']:.0f} ops/s wall ({w['speedup']:.2f}x), "
            f"end-to-end {u['ops_per_sec']:.0f} -> {b['ops_per_sec']:.0f} "
            f"({w['end_to_end_speedup']:.2f}x), sim {u['sim_seconds']:.3f}s -> "
            f"{b['sim_seconds']:.3f}s"
        )
        st_u, st_b = u["stages"], b["stages"]
        lines.append(
            f"    ref commits {st_u['ref_commits']} -> {st_b['ref_commits']} "
            f"(batches {st_b['ref_batches']}), cache hits {st_b['refset_cache_hits']}, "
            f"bloom negatives {st_b['bloom_negative_hits']}"
        )
        if b.get("read_wall_seconds") or u.get("read_wall_seconds"):
            read_speedup = w.get("read_speedup")
            shown = f"{read_speedup:.2f}x" if read_speedup else "n/a"
            cache_lookups = st_b.get("chunk_cache_hits", 0) + st_b.get(
                "chunk_cache_misses", 0
            )
            lines.append(
                f"    read: {u.get('read_ops_per_sec', 0):.0f} -> "
                f"{b.get('read_ops_per_sec', 0):.0f} ops/s ({shown}), "
                f"cache {st_b.get('chunk_cache_hits', 0)}/{cache_lookups} hits, "
                f"{st_b.get('fanout_chunk_reads', 0)} chunk fetches in "
                f"{st_b.get('fanout_batches', 0)} coalesced round trips"
            )
        map_loads = st_b.get("map_cache_hits", 0) + st_b.get("map_cache_misses", 0)
        if map_loads:
            lines.append(
                f"    map cache: {st_b['map_cache_hits']}/{map_loads} hits "
                f"({st_b['map_cache_hits'] / map_loads:.0%}), "
                f"entries serialized {st_b.get('map_entries_serialized', 0)}"
                f"/{st_b.get('map_entries_total', 0)} "
                f"({st_b.get('map_bytes_serialized', 0)} B vs "
                f"{_whole_map_bytes(st_b)} B whole-map)"
            )
        v = w["verify"]
        lines.append(
            f"    verify: readback={'ok' if v['readback_identical'] else 'MISMATCH'} "
            f"refcounts={'ok' if v['refcounts_identical'] else 'MISMATCH'} "
            f"scrub={'clean' if v['scrub_clean_both'] else 'UNCLEAN'}"
        )
    summary = report["summary"]
    tail = (
        f"  min speedup {summary['min_speedup']:.2f}x, "
        f"verified={summary['all_verified']}"
    )
    if summary.get("min_read_speedup") is not None:
        tail += f", min read speedup {summary['min_read_speedup']:.2f}x"
    if summary.get("chunk_cache_hit_rate") is not None:
        tail += f", chunk cache {summary['chunk_cache_hit_rate']:.0%} re-read hits"
    lines.append(tail)
    return lines


def write_report(report: dict, path: str) -> None:
    """Write the report as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
