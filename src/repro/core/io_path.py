"""Foreground I/O paths (paper §4.5).

**Write path** — indistinguishable from the underlying storage system in
the common case, because dedup is post-processed: the data lands in the
metadata object's data part (as cached chunks), chunk-map entries are
created/updated with ``cached = dirty = True`` (the chunk ID stays unset
— fingerprinting would add latency), and the object is logged in the
dirty list.  The one exception: a write that partially covers a chunk
whose bytes are *not* cached must pre-read the missing part from the
chunk object.

**Read path** — the chunk map routes each requested range either to the
metadata object's data part (cached chunk: same cost as the original
system) or to the chunk pool (redirection: metadata pool -> chunk pool
-> client, the overhead visible in Figures 10/11).  Chunks are fetched
in parallel, which is why large sequential reads recover the lost
throughput (Figure 11's 128 KiB case).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..cluster import NoSuchObject, Transaction
from ..obs import NULL_SPAN
from .objects import ChunkMap, ChunkMapEntry
from .tier import DedupTier

__all__ = ["write_path", "read_path", "delete_path"]


def _split_by_valid(start: int, end: int, valid):
    """Split chunk-relative ``[start, end)`` by the valid-range set.

    Yields ``(piece_start, piece_end, in_cache)`` in offset order.
    """
    pos = start
    for v_start, v_end in valid:
        if v_end <= pos or v_start >= end:
            continue
        if v_start > pos:
            yield (pos, min(v_start, end), False)
            pos = min(v_start, end)
        if pos >= end:
            return
        covered_end = min(v_end, end)
        if covered_end > pos:
            yield (pos, covered_end, True)
            pos = covered_end
        if pos >= end:
            return
    if pos < end:
        yield (pos, end, False)


def _read_cached_piece(tier, oid, offset, length, client, span=NULL_SPAN):
    """Process: read cached bytes at the metadata primary and return
    them to the client (original-system read cost).

    On an erasure-coded metadata pool the payload is sharded, so the
    read goes through the EC decode path instead.  Retried under the
    tier's policy: a primary dying mid-read re-resolves to the next
    acting replica on the following attempt.
    """
    cluster = tier.cluster
    client = client or cluster._default_client

    with span.child("tier.read_cached", oid=oid, nbytes=length) as s:

        def attempt():
            if tier.metadata_pool.is_ec:
                data = yield from cluster.read(
                    tier.metadata_pool, oid, offset, length, client, span=s
                )
                return data
            primary = cluster._primary(tier.metadata_pool, oid)
            key = tier.metadata_key(oid)
            data = yield from primary.execute_read(key, offset, length)
            yield from cluster._transfer(primary.node.nic, client.nic, len(data))
            return data

        data = yield from tier.retrying(attempt, op="read_cached", span=s)
        return data


def _read_chunk_piece(tier, chunk_id, offset, length, client, span=NULL_SPAN):
    """Process: redirected read of one chunk on a compressed chunk pool —
    metadata pool forwards to the chunk pool; chunk primary reads and
    decompresses the whole chunk and returns the data to the client."""
    cluster = tier.cluster
    client = client or cluster._default_client

    with span.child("tier.redirect", chunk=chunk_id, nbytes=length) as s:

        def attempt():
            # Forwarding hop: metadata primary -> chunk primary.
            yield tier.sim.timeout(cluster.profile.nic.latency)
            data = yield from tier.read_chunk(chunk_id, offset, length, client, span=s)
            return data

        data = yield from tier.retrying(attempt, op="read_chunk", span=s)
        return data


def _read_chunk_group(tier, fetches, client, span=NULL_SPAN):
    """Process: every uncompressed chunk fetch of one logical read as
    one :meth:`~repro.cluster.RadosCluster.read_batch` call (which
    issues one round per placement group, all groups in parallel).

    Returns a list of byte strings aligned with ``fetches``.  Retried
    as a unit — reads are side-effect free, so a transient fault just
    re-issues the whole batch.
    """
    cluster = tier.cluster
    client = client or cluster._default_client

    with span.child("tier.read_group", chunks=len(fetches)) as s:

        def attempt():
            # Forwarding hop: metadata primary -> chunk-pool primaries.
            yield tier.sim.timeout(cluster.profile.nic.latency)
            data = yield from cluster.read_batch(
                tier.chunk_pool,
                [(cid, f_off, f_len) for cid, f_off, f_len, _admit, _p in fetches],
                client,
                span=s,
            )
            return data

        data = yield from tier.retrying(attempt, op="read_batch", span=s)
        return data


def write_path(tier: DedupTier, oid: str, offset: int, data: bytes, client=None):
    """Process: write ``data`` at ``offset`` of object ``oid``.

    Steps (paper §4.5 write path):

    1. the client issues the request to the metadata pool;
    2. placement hashes the (unchanged, user-visible) object ID; a
       partial overwrite of a non-cached chunk pre-reads the missing
       bytes from the chunk pool;
    3. data is written to the object's data part and chunk-map entries
       are created/updated — cached and dirty set, chunk ID left as-is;
    4. the object ID is logged in the dirty list.

    The map update and the data write are one transaction, so a crash
    either persists both or neither (§4.6).
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    if not data:
        return
    with tier.tracer.root_span("op.write", oid=oid, nbytes=len(data)) as op:
        # Mutations of one object are serialised (as RADOS serialises ops
        # per object at its PG): the chunk-map read-modify-write below must
        # not interleave with a dedup pass committing a new map.
        lock = tier.object_lock(oid)
        with op.child("tier.lock_wait", oid=oid):
            yield lock.acquire()
        try:
            yield from _write_locked(tier, oid, offset, data, client, op)
        finally:
            lock.release()


def _write_locked(
    tier: DedupTier, oid: str, offset: int, data: bytes, client, span=NULL_SPAN
):
    cluster = tier.cluster
    pool = tier.metadata_pool
    cs = tier.config.chunk_size
    cmap = yield from tier.load_chunk_map(oid, span=span)
    if cmap is None:
        cmap = ChunkMap(cs)
    key = tier.metadata_key(oid)
    txn = Transaction()
    end = offset + len(data)
    for idx in tier.chunker.aligned_range(offset, len(data)):
        cstart = idx * cs
        wstart, wend = max(offset, cstart), min(end, cstart + cs)
        rel_start, rel_end = wstart - cstart, wend - cstart
        entry = cmap.get(idx)
        if entry is None:
            entry = ChunkMapEntry(
                offset=cstart, length=rel_end, cached=True, dirty=True
            )
        else:
            entry.length = max(entry.length, rel_end)
            entry.dirty = True
            if not entry.chunk_id:
                # Never flushed: the whole (zero-extended) chunk lives in
                # the data part.
                entry.set_fully_valid()
            elif rel_start == 0 and rel_end >= entry.length:
                entry.set_fully_valid()
            elif not entry.add_valid(rel_start, rel_end):
                # Too fragmented to track: coalesce with a foreground
                # pre-read from the chunk object (the paper's pre-read
                # corner case; common sub-chunk writes never hit it —
                # the read-modify-write is deferred to the engine).
                with span.child("tier.preread", chunk=entry.chunk_id) as s_pre:
                    chunk_bytes = yield from tier.retrying(
                        lambda cid=entry.chunk_id, ln=entry.length, sp=s_pre: (
                            tier.read_chunk(cid, 0, ln, client, span=sp)
                        ),
                        op="preread",
                        span=s_pre,
                    )
                chunk_bytes = chunk_bytes + b"\x00" * (
                    entry.length - len(chunk_bytes)
                )
                # Fill only the ranges the cache does not hold — the
                # cached ranges carry newer data.
                for seg_start, seg_end in entry.missing_ranges():
                    txn.write(
                        key, cstart + seg_start, chunk_bytes[seg_start:seg_end]
                    )
                entry.set_fully_valid()
        cmap.set(entry)
        tier.cache.note_cached(
            oid, idx, sum(e - s for s, e in entry.valid)
        )
    txn.write(key, offset, data)
    tier.append_map_commit(txn, oid, cmap)
    # Safe to retry: the transaction writes absolute offsets, so a
    # replay after a partial failure converges to the same state.
    try:
        yield from tier.retrying(
            lambda: cluster.submit(pool, oid, txn, client, span=span),
            op="meta_write",
            span=span,
        )
    except Exception:
        # The faulted commit may have partially landed: the stored map
        # no longer necessarily matches the cached committed snapshot.
        tier.invalidate_map_cache(oid)
        raise
    tier.note_map_committed(oid, cmap)
    tier.bump_seq(oid)
    tier.mark_dirty(oid)
    tier.fg_window.note(len(data))
    tier.cache.record_access(oid)


def delete_path(tier: DedupTier, oid: str, client=None):
    """Process: delete object ``oid`` and release its chunks.

    The metadata object is removed first (the user-visible delete), then
    every chunk the map referenced is dereferenced — chunk objects whose
    last reference this was disappear with it.  A crash in between
    leaves only over-retained chunks (never dangling pointers), which
    the offline GC reclaims — the same §4.6 safety direction as flush.
    """
    with tier.tracer.root_span("op.delete", oid=oid) as op:
        lock = tier.object_lock(oid)
        with op.child("tier.lock_wait", oid=oid):
            yield lock.acquire()
        try:
            cmap = yield from tier.load_chunk_map(oid, span=op)
            if cmap is None:
                raise NoSuchObject(oid)
            key = tier.metadata_key(oid)
            cluster = tier.cluster
            # Removing an already-removed object is a no-op, so the delete
            # and each dereference below are idempotent under retry.
            yield from tier.retrying(
                lambda: cluster.submit(
                    tier.metadata_pool, oid, Transaction().remove(key), client,
                    span=op,
                ),
                op="meta_delete",
                span=op,
            )
            # The decoded map of a removed object must not be served to
            # a later recreate (load_chunk_map hits skip the existence
            # probe entirely).
            tier.invalidate_map_cache(oid)
            tier.bump_seq(oid)
            via = client
            for entry in cmap:
                if entry.chunk_id:
                    yield from tier.retrying(
                        lambda cid=entry.chunk_id, e=entry: tier.chunk_deref(
                            cid, entry_ref(tier, oid, e), via, span=op
                        ),
                        op="chunk_deref",
                        span=op,
                    )
                idx = entry.offset // tier.config.chunk_size
                tier.cache.note_evicted(oid, idx)
            tier.fg_window.note(0)
        finally:
            lock.release()


def entry_ref(tier: DedupTier, oid: str, entry):
    """The reference record a chunk-map entry implies."""
    from .objects import ChunkRef

    return ChunkRef(tier.metadata_pool.pool_id, oid, entry.offset)


def read_path(
    tier: DedupTier,
    oid: str,
    offset: int = 0,
    length: Optional[int] = None,
    client=None,
):
    """Process: read ``length`` bytes at ``offset``; returns bytes.

    Cached chunks are served from the metadata object (original-system
    cost); non-cached chunks are fetched from the chunk pool in parallel
    (redirection cost).
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    with tier.tracer.root_span("op.read", oid=oid) as op:
        # A concurrent dedup pass can re-point a chunk between our map read
        # and the chunk-object read (the old chunk object disappears once
        # dereferenced).  Retrying from a fresh map resolves it.
        for attempt in range(3):
            try:
                data = yield from _read_once(tier, oid, offset, length, client, op)
                op.tag(nbytes=len(data))
                return data
            except NoSuchObject:
                if attempt == 2:
                    raise
                op.annotate("map_race", attempt=attempt + 1)
                continue


def _place_segment(tier, buf, base, sstart, seg_len, segment, span):
    """Copy one gathered segment into the assembly buffer.

    A segment can come back short when the backing object was truncated
    or re-pointed mid-read; pad to keep the gather shape, but never
    silently — the span and counter make the anomaly visible to the
    harness and to traces.
    """
    if len(segment) != seg_len:
        tier.stage.read_short_segments += 1
        span.annotate(
            "read_short_segment",
            offset=sstart,
            expected=seg_len,
            got=len(segment),
        )
        segment = segment[:seg_len] + b"\x00" * (seg_len - len(segment))
    buf[sstart - base : sstart - base + seg_len] = segment


def _gather(tier, oid, buf, base, cached_pieces, chunk_pieces, client, span=NULL_SPAN):
    """Process: fetch every planned piece and assemble ``buf`` in place.

    1. **chunk data cache** — chunk-backed pieces whose fingerprint is
       resident are served from memory with no simulated I/O; misses on
       a second-sighted fingerprint widen the fetch to the whole chunk
       so it can be admitted (never a torn payload — admission checks
       the length against the map entry).  ``chunk_cache_bytes = 0``
       takes it out of the path.
    2. **parallel fan-out** — every remaining chunk fetch goes out at
       once: on an uncompressed chunk pool as one
       :meth:`~repro.cluster.RadosCluster.read_batch` (one round per
       placement group), on a compressed pool as one
       :meth:`~repro.core.tier.DedupTier.read_chunk` per chunk, since
       decompression needs whole chunks.  Cached pieces and chunk
       fetches all run under one ``all_of``; a single job runs inline.

    Cache hit/miss tallies are folded into the stage counters only when
    the attempt completes, so a ``NoSuchObject`` race retried by
    :func:`read_path` never double-counts.
    """
    cache = tier.chunk_data_cache
    hits = 0
    misses = 0
    pending: List[Tuple[int, str, int, int, int]] = []
    for piece in chunk_pieces:
        sstart, chunk_id, rel, ln, _entry_len = piece
        if cache.enabled:
            data = cache.get(chunk_id)
            if data is not None:
                hits += 1
                _place_segment(tier, buf, base, sstart, ln, data[rel : rel + ln], span)
                continue
            misses += 1
        pending.append(piece)
    if hits or misses:
        with span.child("tier.chunk_cache") as s_cc:
            s_cc.tag(hits=hits, misses=misses)

    # Merge pieces of the same chunk object into one covering fetch;
    # widen to the full chunk when the admission filter wants a copy.
    # fetches: (chunk id, fetch offset, fetch length, admit, pieces)
    fetches: List[Tuple[str, int, int, bool, list]] = []
    by_chunk: "OrderedDict[str, list]" = OrderedDict()
    for piece in pending:
        by_chunk.setdefault(piece[1], []).append(piece)
    for chunk_id, pieces in by_chunk.items():
        entry_len = max(p[4] for p in pieces)
        if cache.should_admit(chunk_id, entry_len):
            fetches.append((chunk_id, 0, entry_len, True, pieces))
        else:
            f_off = min(p[2] for p in pieces)
            f_len = max(p[2] + p[3] for p in pieces) - f_off
            cache.note_seen(chunk_id)
            fetches.append((chunk_id, f_off, f_len, False, pieces))

    def place_fetch(fetch, data):
        chunk_id, f_off, f_len, admit, pieces = fetch
        if admit and len(data) == f_len:
            cache.admit(chunk_id, bytes(data))
        for sstart, _cid, rel, ln, _el in pieces:
            _place_segment(
                tier, buf, base, sstart, ln, data[rel - f_off : rel - f_off + ln], span
            )

    def place_fetches(results):
        for fetch, data in zip(fetches, results):
            place_fetch(fetch, data)

    # Build the job list: (generator, result handler).
    jobs: List[Tuple[object, object]] = []
    for sstart, ln in cached_pieces:
        gen = _read_cached_piece(tier, oid, sstart, ln, client, span)
        jobs.append((gen, lambda seg, s=sstart, n=ln: _place_segment(
            tier, buf, base, s, n, seg, span)))
    batches = 0
    if fetches and not tier.config.compress_chunks:
        jobs.append((_read_chunk_group(tier, fetches, client, span), place_fetches))
        batches = len({tier.chunk_pool.pg_of(f[0]) for f in fetches})
    else:
        for fetch in fetches:
            chunk_id, f_off, f_len, _admit, _pieces = fetch
            gen = _read_chunk_piece(tier, chunk_id, f_off, f_len, client, span)
            jobs.append((gen, lambda data, f=fetch: place_fetch(f, data)))

    with span.child("tier.read_fanout") as s_f:
        s_f.tag(
            jobs=len(jobs),
            cache_hits=hits,
            chunk_fetches=len(fetches),
            batches=batches,
        )
        if len(jobs) == 1:
            gen, handle = jobs[0]
            handle((yield from gen))
        elif jobs:
            procs = [tier.sim.process(gen) for gen, _handle in jobs]
            results = yield tier.sim.all_of(procs)
            for (_gen, handle), result in zip(jobs, results):
                handle(result)
    tier.stage.chunk_cache_hits += hits
    tier.stage.chunk_cache_misses += misses
    tier.stage.fanout_chunk_reads += len(fetches)
    tier.stage.fanout_batches += batches
    if batches:
        tier.stage.fanout_batched_chunks += len(fetches)


def _read_once(tier, oid, offset, length, client, span=NULL_SPAN):
    cmap = yield from tier.load_chunk_map(oid, span=span)
    if cmap is None:
        raise NoSuchObject(oid)
    # The client's request reaches the metadata pool first (one RPC).
    with span.child("tier.route"):
        yield tier.sim.timeout(tier.cluster.profile.nic.latency)
    size = cmap.logical_size()
    end = size if length is None else min(offset + length, size)
    if end <= offset:
        tier.cache.record_access(oid)
        return b""
    cs = tier.config.chunk_size
    # Plan the read: split the requested range into cache-valid pieces
    # (served from the metadata object) and chunk-backed pieces (served
    # by the chunk pool, or zeros when the chunk was never flushed).
    cached_pieces: List[Tuple[int, int]] = []  # (abs start, length)
    chunk_pieces: List[Tuple[int, str, int, int, int]] = []
    # ^ (abs start, chunk id, chunk-relative offset, length, entry length)
    for idx in tier.chunker.aligned_range(offset, end - offset):
        cstart = idx * cs
        entry = cmap.get(idx)
        if entry is None:
            continue  # hole: zero-filled below
        sstart = max(offset, cstart)
        send = min(end, entry.end)
        if send <= sstart:
            continue
        for piece_start, piece_end, in_cache in _split_by_valid(
            sstart - cstart, send - cstart, entry.valid
        ):
            if in_cache:
                # Served by the metadata primary directly — the same
                # cost as the original system's read.
                tier.cache_hits += 1
                cached_pieces.append(
                    (cstart + piece_start, piece_end - piece_start)
                )
            elif entry.chunk_id:
                tier.cache_misses += 1
                # Redirection (paper §6.2.1): the metadata pool forwards
                # the request to the chunk pool, which returns the data
                # to the client — one extra network hop per chunk.
                chunk_pieces.append(
                    (
                        cstart + piece_start,
                        entry.chunk_id,
                        piece_start,
                        piece_end - piece_start,
                        entry.length,
                    )
                )
            # else: sparse zeros within the chunk
    buf = bytearray(end - offset)
    yield from _gather(
        tier, oid, buf, offset, cached_pieces, chunk_pieces, client, span
    )
    tier.fg_window.note(end - offset)
    tier.cache.record_access(oid)
    # Hot object served from the chunk pool: promote it back into the
    # metadata-pool cache (asynchronously — the read is already done).
    # ``cache_on_flush`` is the master switch for hot caching: off means
    # the metadata pool never holds clean data, so no promotion either.
    if (
        tier.on_hot_read is not None
        and tier.config.cache_on_flush
        and tier.cache.is_hot(oid)
    ):
        if any(
            entry.chunk_id and not entry.dirty and not entry.fully_cached()
            for entry in cmap
        ):
            tier.on_hot_read(oid)
    return bytes(buf)
