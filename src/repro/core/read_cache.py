"""Hotness-aware chunk data cache for the read path.

A byte-budgeted LRU of decoded chunk payloads keyed by fingerprint,
sitting in front of the chunk pool.  Content addressing does the heavy
lifting for correctness: a chunk object's bytes can never change under
its ID (an overwrite produces a *different* fingerprint), so a cached
payload can never be stale — the only invalidation the cache needs is
eviction when the chunk object itself is reclaimed (scrub GC, last
deref) or when recovery/rebalance rewrites the pool underneath us, and
that is purely an *accounting* matter (serving the old bytes would
still be byte-correct; holding them just wastes budget on dead chunks).

Admission is two-hit (HPDedup-style hotness filter): the first sighting
of a fingerprint only records it in a bounded ghost list; a chunk is
admitted — and its *full* payload fetched and kept — only when it is
read again while still remembered.  A single sequential scan therefore
cannot flush the resident working set with chunks that will never be
read twice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..perf.stages import StageCounters

__all__ = ["GHOST_ENTRIES", "ChunkDataCache"]

#: Bound on the admission filter's ghost list (fingerprints seen once,
#: no payload held).
GHOST_ENTRIES = 4096


class ChunkDataCache:
    """Byte-budgeted, two-hit-admission LRU of chunk payloads.

    ``capacity_bytes <= 0`` disables the cache entirely (every method
    degrades to a no-op / miss).  ``stage`` receives the admission and
    eviction counters; hit/miss counts are the *caller's* job — the
    read path tallies them per attempt and folds them in only when the
    attempt completes, so a retried read never double-counts.
    """

    def __init__(
        self,
        capacity_bytes: int,
        stage: StageCounters,
        ghost_entries: int = GHOST_ENTRIES,
    ):
        self.capacity = capacity_bytes
        self.stage = stage
        self.ghost_cap = ghost_entries
        #: Resident payloads, LRU order (oldest first).
        self._data: "OrderedDict[str, bytes]" = OrderedDict()
        #: Ghost list: fingerprints seen exactly once, no payload held.
        self._ghost: "OrderedDict[str, None]" = OrderedDict()
        self.bytes_used = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache participates in reads at all."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._data

    def get(self, chunk_id: str) -> Optional[bytes]:
        """The resident payload for ``chunk_id``, or ``None``.

        A hit refreshes recency.  Does not touch the stage counters —
        see the class docstring for why.
        """
        data = self._data.get(chunk_id)
        if data is not None:
            self._data.move_to_end(chunk_id)
        return data

    def should_admit(self, chunk_id: str, length: int) -> bool:
        """Whether a miss on ``chunk_id`` warrants fetching the whole
        chunk for admission (second sighting, fits in the budget)."""
        if not self.enabled or length > self.capacity:
            return False
        if chunk_id in self._data:
            return False
        return chunk_id in self._ghost

    def note_seen(self, chunk_id: str) -> None:
        """Record a first sighting in the ghost list (bounded FIFO)."""
        if not self.enabled or chunk_id in self._data:
            return
        ghost = self._ghost
        if chunk_id in ghost:
            ghost.move_to_end(chunk_id)
            return
        ghost[chunk_id] = None
        while len(ghost) > self.ghost_cap:
            ghost.popitem(last=False)

    def admit(self, chunk_id: str, data: bytes) -> None:
        """Install a full payload, evicting LRU entries to fit.

        Callers must pass the *complete* chunk payload — admitting a
        torn/short read would serve truncated bytes to later hits, so
        the read path checks the length against the map entry first.
        """
        if not self.enabled or len(data) > self.capacity:
            return
        self._ghost.pop(chunk_id, None)
        old = self._data.pop(chunk_id, None)
        if old is not None:
            self.bytes_used -= len(old)
        self._data[chunk_id] = data
        self.bytes_used += len(data)
        self.stage.chunk_cache_admissions += 1
        while self.bytes_used > self.capacity:
            _victim, vdata = self._data.popitem(last=False)
            self.bytes_used -= len(vdata)
            self.stage.chunk_cache_evictions += 1

    def evict(self, chunk_id: str) -> bool:
        """Drop one chunk (reclaimed by GC / last deref); True if held."""
        self._ghost.pop(chunk_id, None)
        data = self._data.pop(chunk_id, None)
        if data is None:
            return False
        self.bytes_used -= len(data)
        self.stage.chunk_cache_evictions += 1
        return True

    def clear(self) -> None:
        """Drop everything (recovery/rebalance repair fence)."""
        self.stage.chunk_cache_evictions += len(self._data)
        self._data.clear()
        self._ghost.clear()
        self.bytes_used = 0
