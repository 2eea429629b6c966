"""Memory transaction models: global coalescing and shared-memory banks.

Global memory
=============

The device services a warp's memory instruction by fetching whole *sectors*
(32 bytes on the A100-like profile).  The number of distinct sectors touched
by the participating lanes determines the cost: a fully coalesced warp read
of 32 contiguous ``float32`` touches 4 sectors; a stride-128 pattern touches
32.  This is the mechanism behind the paper's motivation that performance
"suffers if data access patterns are neither uniform nor consecutive with
regards to worksharing loops" — and behind the SU3/ideal-kernel speedups
when ``simd`` turns per-thread strided loops into consecutive lane accesses.

Shared memory
=============

Shared memory is organised in ``banks`` word-interleaved banks.  A warp
access completes in as many passes as the maximum number of *distinct words*
any single bank must serve (broadcasts of the same word are free, as on real
hardware).

Issue groups
============

:func:`sector_footprint` and :func:`bank_passes` are the cost model the
block round loop charges per issue group and the JIT per compiled script
step, so the two engines' counters agree by construction.  A group is
given as *columns*, one per unrolled vector position: each column is a
unit-stride ascending ``(first, last)`` index run or a sequence of the
participating lanes' element indices.  :func:`global_sectors` and
:func:`shared_conflict_degree` are the scalar reference definitions the
property tests check them against.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, Sequence, Tuple

import numpy as np

#: Index columns at least this long take the NumPy path; shorter Python
#: lists are cheaper as set walks.
NUMPY_MIN_LANES = 48


def global_sectors(addresses: Iterable[int], sector_bytes: int = 32) -> int:
    """Number of distinct ``sector_bytes``-sized sectors covering ``addresses``.

    ``addresses`` are byte addresses of the individual element accesses a
    warp issues together (one per participating lane and vector position).
    """
    return len({addr // sector_bytes for addr in addresses})


def shared_conflict_degree(
    addresses: Sequence[int], banks: int = 32, word_bytes: int = 4
) -> int:
    """Bank-conflict degree of a warp-synchronous shared memory access.

    Returns the number of serialized passes needed: the maximum, over banks,
    of the number of *distinct* words requested from that bank.  Identical
    words are broadcast in one pass.  An empty access costs 0 passes.
    """
    per_bank: dict[int, set[int]] = {}
    for addr in addresses:
        word = addr // word_bytes
        bank = word % banks
        per_bank.setdefault(bank, set()).add(word)
    if not per_bank:
        return 0
    return max(len(words) for words in per_bank.values())


def _index_array(col) -> np.ndarray:
    if col.__class__ is tuple:
        return np.arange(col[0], col[1] + 1, dtype=np.int64)
    return np.asarray(col, dtype=np.int64)


def sector_footprint(cols, base: int, itemsize: int, sector_bytes: int):
    """``(sectors, transactions)`` of one global-memory issue group.

    Element ``i`` occupies bytes ``base + i * itemsize`` through
    ``+ itemsize - 1`` and touches the sectors of its first and last
    byte.  ``sectors`` are the group's distinct sectors in ascending
    order — the order the L1 sees them — and ``transactions`` sums each
    column's distinct sectors.  Index lists must hold Python ints.
    """
    if len(cols) == 1 and cols[0].__class__ is tuple:
        # One unit-stride run (the coalesced-stream shape): one
        # contiguous sector interval.
        first, last = cols[0]
        s0 = (base + first * itemsize) // sector_bytes
        s1 = (base + last * itemsize + itemsize - 1) // sector_bytes
        return range(s0, s1 + 1), s1 - s0 + 1
    sb = sector_bytes
    spill = itemsize - 1
    # Aligned elements never straddle a sector: one division each.
    aligned = sb % itemsize == 0 and base % itemsize == 0
    small = True
    for col in cols:
        if col.__class__ is not list or len(col) >= NUMPY_MIN_LANES:
            small = False
            break
    if small:
        sectors = None
        transactions = 0
        for col in cols:
            if aligned:
                pos = {(base + i * itemsize) // sb for i in col}
            else:
                pos = set()
                for i in col:
                    a = base + i * itemsize
                    pos.add(a // sb)
                    pos.add((a + spill) // sb)
            transactions += len(pos)
            sectors = pos if sectors is None else sectors | pos
        return sorted(sectors or ()), transactions
    parts = []
    transactions = 0
    for col in cols:
        a = base + _index_array(col) * itemsize
        if not aligned:
            a = np.concatenate((a, a + spill))
        u = np.unique(a // sb)
        transactions += u.size
        parts.append(u)
    if len(parts) == 1:
        return parts[0].tolist(), transactions
    return np.unique(np.concatenate(parts)).tolist(), transactions


def bank_passes(
    cols, base: int, itemsize: int, banks: int, word_bytes: int
) -> int:
    """Serialized passes of one shared-memory issue group.

    The sum over columns of each column's bank-conflict degree
    (:func:`shared_conflict_degree` of its elements' start addresses).
    Every column must be non-empty.
    """
    passes = 0
    for col in cols:
        if col.__class__ is tuple:
            if itemsize % word_bytes == 0:
                # Word-multiple elements on a unit-stride run: the words
                # form an arithmetic progression of stride
                # ``itemsize // word_bytes``, which cycles through
                # ``banks // gcd`` banks round-robin.
                period = banks // math.gcd(itemsize // word_bytes, banks)
                passes += -(-(col[1] - col[0] + 1) // period)
                continue
            col = list(range(col[0], col[1] + 1))
        if col.__class__ is list and len(col) < NUMPY_MIN_LANES:
            per_bank: dict = {}
            for i in col:
                word = (base + i * itemsize) // word_bytes
                bank = word % banks
                s = per_bank.get(bank)
                if s is None:
                    per_bank[bank] = {word}
                else:
                    s.add(word)
            passes += max(map(len, per_bank.values()))
        else:
            words = np.unique((base + _index_array(col) * itemsize) // word_bytes)
            passes += int(np.bincount(words % banks).max())
    return passes


class L1SectorCache:
    """Per-block L1 sector cache: LRU over sector ids with a batch API.

    The block scheduler filters every global-memory issue group's distinct
    sectors through this cache; hits ride the cheap L1 pipe, misses pay
    DRAM bandwidth.  An ``OrderedDict`` keeps the sectors from least to
    most recently used: a hit moves its sector to the back, a miss
    inserts it there, and eviction pops from the front after each batch,
    exactly one warp instruction's worth of accesses at a time.  Every
    step is O(1) per sector.

    The round loop and the JIT keep one instance per block and present
    their sector batches in ascending sector order, so the cache state —
    and therefore every downstream hit/miss counter — evolves
    identically regardless of which engine ran the round.
    """

    __slots__ = ("cap", "_entries")

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("L1 cache needs at least one sector slot")
        self.cap = int(cap)
        self._entries: OrderedDict = OrderedDict()

    def access(self, sectors: Iterable[int]) -> Tuple[int, int]:
        """Touch a run of *distinct* sector ids; returns ``(hits, misses)``.

        Callers pass each batch in ascending order (a sorted set or the
        output of ``np.unique``) so independent engines replay the same
        insertion sequence.
        """
        entries = self._entries
        touch = entries.move_to_end
        hits = 0
        misses = 0
        for sec in sectors:
            if sec in entries:
                touch(sec)
                hits += 1
            else:
                entries[sec] = None
                misses += 1
        over = len(entries) - self.cap
        while over > 0:
            entries.popitem(last=False)
            over -= 1
        return hits, misses

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sector: int) -> bool:
        return sector in self._entries

