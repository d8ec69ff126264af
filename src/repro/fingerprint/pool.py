"""Chunk fingerprinting: the dedup pipeline's hash stage.

:meth:`FingerprintPool.submit_many` digests a batch of chunk payloads on
the calling thread, in order, and returns the hex digests.  The engine
applies reference-count updates in that order, so batched and
sequential flushes stay equivalent (the invariant the ``repro lint``
DET rules and the batched==sequential Hypothesis properties pin down).

Hashing runs inline because it is not where the host time goes: on the
``pipeline-chunk-fingerprint`` perf workload the CDC boundary scan
dominates and hashing is about 2% of the wall time, and a thread pool
here measured below 1× parallelism (busy/wall) on every simulated
workload.  Inline hashing also keeps the deterministic simulator free of
threads.  See ``docs/performance.md``.

Timing note: the pool measures host wall-clock per digest for the perf
stage counters.  That is fine *here* — ``repro.fingerprint`` is outside
the DET001 no-wall-clock scope precisely so hashing cost never feeds
simulated state.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, List, Optional

from ..obs import NULL_SPAN, Span
from .fingerprint import fingerprint

__all__ = ["FingerprintPool", "PoolStats"]


@dataclass
class PoolStats:
    """Counters for the perf harness (mirrored into ``StageCounters``)."""

    #: Digests computed over the pool's lifetime.
    tasks: int = 0
    #: Sum of per-digest hashing time.
    busy_seconds: float = 0.0
    #: Wall-clock spent inside :meth:`FingerprintPool.submit_many`;
    #: ``busy_seconds / wall_seconds`` is the hashing share of that call.
    wall_seconds: float = 0.0


class FingerprintPool:
    """Ordered chunk hashing on the calling thread, with timing stats."""

    #: Hashing threads: always the caller's own.
    workers = 1

    def __init__(self, algorithm: str = "sha1") -> None:
        self.algorithm = algorithm
        self.stats = PoolStats()

    def submit_many(
        self,
        payloads: Iterable[bytes],
        algorithm: Optional[str] = None,
        span: Span = NULL_SPAN,
    ) -> List[str]:
        """Digest ``payloads`` in order; returns one hex digest each.

        ``span`` (a ``repro.obs`` span) is tagged with the digest count.
        """
        algo = algorithm if algorithm is not None else self.algorithm
        stats = self.stats
        started = perf_counter()
        digests = []
        for data in payloads:
            t0 = perf_counter()
            digests.append(fingerprint(data, algo))
            stats.busy_seconds += perf_counter() - t0
        stats.tasks += len(digests)
        stats.wall_seconds += perf_counter() - started
        span.tag(fp_tasks=len(digests))
        return digests

    def shutdown(self) -> None:
        """No-op: the pool holds no threads or other resources."""
