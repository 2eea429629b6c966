"""Unit and property tests for the coalescing / bank-conflict models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu.block import ThreadBlock
from repro.gpu.coalescing import (
    NUMPY_MIN_LANES,
    L1SectorCache,
    bank_passes,
    global_sectors,
    sector_footprint,
    shared_conflict_degree,
)
from repro.gpu.costmodel import nvidia_a100
from repro.gpu.events import T_LOAD, T_STORE, Load, Store
from repro.gpu.memory import Buffer, GlobalMemory


class TestGlobalSectors:
    def test_fully_coalesced_float32_warp(self):
        # 32 lanes x 4 bytes contiguous = 128 bytes = 4 sectors.
        addrs = [i * 4 for i in range(32)]
        assert global_sectors(addrs) == 4

    def test_fully_coalesced_float64_warp(self):
        addrs = [i * 8 for i in range(32)]
        assert global_sectors(addrs) == 8

    def test_fully_scattered(self):
        addrs = [i * 128 for i in range(32)]
        assert global_sectors(addrs) == 32

    def test_broadcast_single_sector(self):
        assert global_sectors([64] * 32) == 1

    def test_empty(self):
        assert global_sectors([]) == 0

    def test_custom_sector_size(self):
        addrs = [0, 32, 64, 96]
        assert global_sectors(addrs, sector_bytes=128) == 1


class TestSharedConflicts:
    def test_conflict_free_stride_one(self):
        addrs = [i * 4 for i in range(32)]
        assert shared_conflict_degree(addrs) == 1

    def test_two_way_conflict_stride_two(self):
        addrs = [i * 8 for i in range(32)]
        assert shared_conflict_degree(addrs) == 2

    def test_worst_case_same_bank(self):
        addrs = [i * 32 * 4 for i in range(32)]
        assert shared_conflict_degree(addrs) == 32

    def test_broadcast_is_free(self):
        # Same word from every lane: one pass.
        assert shared_conflict_degree([128] * 32) == 1

    def test_empty_access(self):
        assert shared_conflict_degree([]) == 0


@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=64))
def test_sector_count_bounds(addrs):
    """1 <= sectors <= len(addrs); dedup never increases the count."""
    n = global_sectors(addrs)
    assert 1 <= n <= len(addrs)
    assert global_sectors(set(addrs)) == n


@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=64))
def test_conflict_degree_bounds(addrs):
    """Conflict degree is between 1 and the number of distinct words."""
    d = shared_conflict_degree(addrs)
    words = {a // 4 for a in addrs}
    assert 1 <= d <= len(words)


# ---------------------------------------------------------------------------
# The issue-group cost model against first-principles oracles.
#
# The fast engine and the JIT charge memory through ``sector_footprint``
# and ``bank_passes``, so these properties are the cost model's reference
# check: sectors come from enumerating every byte each element occupies
# (``global_sectors``), passes from ``shared_conflict_degree`` over the
# elements' start addresses, one column (vector position) at a time.

_ITEMSIZES = (1, 2, 4, 8, 16)


def _element_bytes(col, base, itemsize):
    return [
        b for i in col for b in range(base + i * itemsize, base + (i + 1) * itemsize)
    ]


def _oracle_footprint(cols, base, itemsize, sector_bytes):
    sectors = set()
    transactions = 0
    for col in cols:
        addrs = _element_bytes(col, base, itemsize)
        transactions += global_sectors(addrs, sector_bytes)
        sectors |= {a // sector_bytes for a in addrs}
    return sorted(sectors), transactions


def _oracle_passes(cols, base, itemsize, banks, word_bytes):
    return sum(
        shared_conflict_degree([base + i * itemsize for i in col], banks, word_bytes)
        for col in cols
    )


@st.composite
def _index_column(draw, n):
    """``(indices, as_run)``: a unit-stride run, a strided walk, or random
    indices over ``n`` lanes (sizes straddle the NumPy cutoff)."""
    kind = draw(st.sampled_from(["run", "strided", "random"]))
    if kind == "random":
        idx = draw(st.lists(st.integers(0, 4096), min_size=n, max_size=n))
        return idx, False
    first = draw(st.integers(0, 2048))
    stride = 1 if kind == "run" else draw(st.sampled_from([0, 2, 3, 4, 8, 33]))
    return [first + stride * j for j in range(n)], stride == 1


@st.composite
def _group(draw, ragged=False):
    itemsize = draw(st.sampled_from(_ITEMSIZES))
    base = draw(st.one_of(
        st.integers(0, 64).map(lambda b: b * itemsize),  # aligned
        st.integers(0, 4096),  # any alignment
    ))
    # Single-position groups take the dedicated run/set paths; weight them.
    npos = draw(st.sampled_from([1, 1, 1, 2, 3, 4]))
    sizes = st.sampled_from([1, 2, 7, 31, 32, 47, NUMPY_MIN_LANES, 64, 96])
    n = draw(sizes)
    cols = [draw(_index_column(draw(sizes) if ragged else n)) for _ in range(npos)]
    return cols, base, itemsize


def _representations(cols):
    """Every way a caller may hand over the same columns: Python lists,
    int64 arrays, and ``(first, last)`` tuples for unit-stride runs."""
    lists = [list(c) for c, _ in cols]
    yield lists
    yield [np.asarray(c, dtype=np.int64) for c in lists]
    yield [(c[0], c[-1]) if run else c for c, (_, run) in zip(lists, cols)]


_GROUPS = st.booleans().flatmap(_group)


@settings(deadline=None, max_examples=200)
@given(_GROUPS, st.sampled_from([16, 32, 64]))
def test_sector_footprint_matches_byte_oracle(group, sector_bytes):
    cols, base, itemsize = group
    itemsize = min(itemsize, sector_bytes)
    want = _oracle_footprint([c for c, _ in cols], base, itemsize, sector_bytes)
    for rep in _representations(cols):
        secs, transactions = sector_footprint(rep, base, itemsize, sector_bytes)
        assert (list(secs), transactions) == want


@settings(deadline=None, max_examples=200)
@given(_GROUPS, st.sampled_from([16, 32]), st.sampled_from([4, 8]))
def test_bank_passes_match_conflict_oracle(group, banks, word_bytes):
    cols, base, itemsize = group
    want = _oracle_passes([c for c, _ in cols], base, itemsize, banks, word_bytes)
    for rep in _representations(cols):
        assert bank_passes(rep, base, itemsize, banks, word_bytes) == want


_DTYPES = {1: np.int8, 2: np.float16, 4: np.float32, 8: np.float64, 16: np.complex128}


@st.composite
def _event_group(draw):
    """A ragged multi-buffer issue group: 1-3 buffers of mixed itemsize
    and alignment, each lane picking a buffer and 1-4 indices."""
    space = draw(st.sampled_from(["global", "shared"]))
    nbufs = draw(st.integers(1, 3))
    bufs = []
    for b in range(nbufs):
        itemsize = draw(st.sampled_from(_ITEMSIZES))
        base = draw(st.integers(0, 4096))
        bufs.append(Buffer(f"b{b}", space, 512, _DTYPES[itemsize], base=base))
    n = draw(st.sampled_from([1, 5, 32, NUMPY_MIN_LANES + 2]))
    evs = []
    for _ in range(n):
        buf = bufs[draw(st.integers(0, nbufs - 1))]
        npos = draw(st.integers(1, 4))
        idxs = tuple(draw(st.lists(st.integers(0, 511), min_size=npos, max_size=npos)))
        evs.append(Load(buf, idxs))
    return space, evs


def _noop_kernel(tc):
    yield from tc.compute("alu")


@settings(deadline=None, max_examples=100)
@given(_event_group(), st.sampled_from([T_LOAD, T_STORE]))
def test_block_accounting_of_ragged_groups_matches_oracles(group, tag):
    """The block's restated byte-address columns charge mixed-buffer,
    ragged groups exactly as the per-position oracles do."""
    space, evs = group
    if tag == T_STORE:
        evs = [Store(ev.buf, ev.idxs, (0,) * len(ev.idxs)) for ev in evs]
    params = nvidia_a100()
    tb = ThreadBlock(0, 32, params, GlobalMemory(), _noop_kernel)
    positions = max(len(ev.idxs) for ev in evs)
    tb._acct_mem((tag, space), evs, False)
    c = tb.counters
    per_pos = [[ev for ev in evs if k < len(ev.idxs)] for k in range(positions)]
    if space == "global":
        sb = params.sector_bytes
        sectors = set()
        transactions = 0
        for k, pevs in enumerate(per_pos):
            addrs = [
                b
                for ev in pevs
                for b in _element_bytes([ev.idxs[k]], ev.buf.base, ev.buf.itemsize)
            ]
            transactions += global_sectors(addrs, sb)
            sectors |= {a // sb for a in addrs}
        assert c.lsu_transactions == transactions
        # A cold L1 misses every distinct sector exactly once.
        assert (c.l1_hits, c.l1_misses) == (0, len(sectors))
        assert all(s in tb._l1 for s in sectors)
    else:
        passes = sum(
            shared_conflict_degree(
                [ev.buf.byte_address(ev.idxs[k]) for ev in pevs],
                params.shared_banks,
                params.shared_word_bytes,
            )
            for k, pevs in enumerate(per_pos)
        )
        assert c.shared_passes == passes


class _ReferenceLRU:
    """A list in least- to most-recently-used order."""

    def __init__(self, cap):
        self.cap = cap
        self.order = []

    def access(self, sectors):
        hits = 0
        for sec in sectors:
            if sec in self.order:
                self.order.remove(sec)
                hits += 1
            self.order.append(sec)
        del self.order[:max(0, len(self.order) - self.cap)]
        return hits, len(sectors) - hits


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 16),
       st.lists(st.sets(st.integers(0, 40), max_size=12), max_size=40))
def test_l1_cache_matches_reference_lru(cap, batches):
    """Batches over more sectors than the cache holds evict exactly as a
    reference LRU does: equal hits and misses, equal residents."""
    cache = L1SectorCache(cap)
    ref = _ReferenceLRU(cap)
    for batch in batches:
        secs = sorted(batch)
        assert cache.access(secs) == ref.access(secs)
        assert len(cache) == len(ref.order)
        assert all(sec in cache for sec in ref.order)
