"""Chunk-map codec: entry pack/unpack and stored-map round-trips.

Covers the stored (v2, ``CMP2``) format — a header xattr plus one omap
record per entry — and the ``__slots__`` / string-interning work.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import (
    CHUNK_MAP_ENTRY_BYTES,
    MAP_OMAP_PREFIX,
    MAX_VALID_RANGES,
    ChunkMap,
    ChunkMapEntry,
    ChunkRef,
    map_entry_key,
    merge_ranges,
)

CHUNK = 4096


def entries_equal(a: ChunkMap, b: ChunkMap) -> bool:
    return a.chunk_size == b.chunk_size and list(a) == list(b)


@st.composite
def chunk_entries(draw, chunk_size=CHUNK, index=None):
    idx = draw(st.integers(0, 500)) if index is None else index
    length = draw(st.integers(1, chunk_size))
    chunk_id = draw(
        st.one_of(st.just(""), st.text("0123456789abcdef", min_size=1, max_size=40))
    )
    dirty = draw(st.booleans())
    cached = draw(st.booleans())
    if cached:
        # At least one non-degenerate range; up to the tracking cap.
        n = draw(st.integers(1, MAX_VALID_RANGES))
        ranges = []
        for _ in range(n):
            start = draw(st.integers(0, length - 1))
            end = draw(st.integers(start + 1, length))
            ranges.append((start, end))
        valid = tuple(ranges)
    else:
        valid = ()
    return ChunkMapEntry(
        offset=idx * chunk_size,
        length=length,
        chunk_id=chunk_id,
        cached=cached,
        dirty=dirty,
        valid=valid,
    )


@given(chunk_entries())
@settings(max_examples=200)
def test_entry_pack_unpack_roundtrip(entry):
    blob = entry.pack()
    assert len(blob) == CHUNK_MAP_ENTRY_BYTES
    assert ChunkMapEntry.unpack(blob) == entry


@st.composite
def chunk_maps(draw):
    cmap = ChunkMap(CHUNK)
    indices = draw(st.lists(st.integers(0, 100), max_size=12, unique=True))
    for idx in indices:
        cmap.set(draw(chunk_entries(index=idx)))
    return cmap


@given(chunk_maps())
@settings(max_examples=100)
def test_map_v2_roundtrip_via_header_and_omap(cmap):
    header = cmap.serialize_header_v2(version=7)
    omap = cmap.omap_entries()
    # Foreign omap keys (refs, bookkeeping) must be ignored by decode.
    omap["unrelated.key"] = b"zzz"
    got = ChunkMap.from_stored_v2(header, omap)
    assert entries_equal(got, cmap)
    # A freshly decoded map carries no pending mutations.
    assert got.touched_indices() == []


@given(
    st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 100)).map(
            lambda t: (min(t), max(t))
        ),
        max_size=8,
    )
)
def test_merge_ranges_sorted_disjoint_and_drops_empty(ranges):
    merged = merge_ranges(ranges)
    # Zero-length input ranges vanish; output ranges are non-empty,
    # sorted, disjoint, and non-adjacent.
    for start, end in merged:
        assert end > start
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert s2 > e1
    covered = set()
    for start, end in ranges:
        covered |= set(range(start, end))
    merged_covered = set()
    for start, end in merged:
        merged_covered |= set(range(start, end))
    assert merged_covered == covered


def test_zero_length_valid_ranges_are_dropped():
    entry = ChunkMapEntry(0, 100, cached=True, valid=((5, 5), (10, 20)))
    assert entry.valid == ((10, 20),)
    with pytest.raises(ValueError):
        # All ranges degenerate -> cached entry with no valid bytes.
        ChunkMapEntry(0, 100, cached=True, valid=((5, 5),))


def test_v2_header_count_mismatch_rejected():
    cmap = ChunkMap(CHUNK)
    cmap.set(ChunkMapEntry(0, 10))
    header = cmap.serialize_header_v2(version=1)
    with pytest.raises(ValueError):
        ChunkMap.from_stored_v2(header, {})


def test_map_entry_key_sorts_like_indices():
    keys = [map_entry_key(i) for i in (0, 1, 9, 10, 99, 1234)]
    assert keys == sorted(keys)
    assert all(k.startswith(MAP_OMAP_PREFIX) for k in keys)


def test_touched_tracking_drives_incremental_writer():
    cmap = ChunkMap(CHUNK)
    for i in range(4):
        cmap.set(ChunkMapEntry(i * CHUNK, CHUNK))
    cmap.clear_touched()
    assert cmap.touched_indices() == []
    cmap.set(ChunkMapEntry(2 * CHUNK, CHUNK, dirty=False))
    cmap.get(0).dirty = False
    cmap.mark_touched(0)
    assert cmap.touched_indices() == [0, 2]
    entries = cmap.omap_entries(cmap.touched_indices())
    assert set(entries) == {map_entry_key(0), map_entry_key(2)}
    assert all(len(v) == CHUNK_MAP_ENTRY_BYTES for v in entries.values())


def test_entry_and_ref_have_slots_not_dict():
    entry = ChunkMapEntry(0, 10, "ab")
    ref = ChunkRef(1, "oid", 0)
    assert not hasattr(entry, "__dict__")
    assert not hasattr(ref, "__dict__")
    with pytest.raises(AttributeError):
        entry.bogus_attribute = 1


def test_unpack_interns_chunk_ids():
    a = ChunkMapEntry(0, 10, chunk_id="feedfacefeedface").pack()
    b = ChunkMapEntry(CHUNK, 10, chunk_id="feedfacefeedface").pack()
    ea, eb = ChunkMapEntry.unpack(a), ChunkMapEntry.unpack(b)
    assert ea.chunk_id is eb.chunk_id  # sys.intern collapsed duplicates


def test_v2_header_encodes_version_and_count():
    cmap = ChunkMap(CHUNK)
    cmap.set(ChunkMapEntry(0, 10))
    cmap.set(ChunkMapEntry(CHUNK, 20))
    header = cmap.serialize_header_v2(version=42)
    magic, chunk_size, count, version = struct.unpack(">4sIIQ", header)
    assert magic == b"CMP2"
    assert chunk_size == CHUNK
    assert count == 2
    assert version == 42
