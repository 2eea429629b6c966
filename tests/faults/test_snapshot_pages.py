"""O(dirty-page) MemorySnapshot semantics: restore, re-arm, epochs.

The snapshot's cost model is restore proportional to dirtied pages, and
one snapshot serves every attempt of a launch's retry ladder; these
tests pin the *semantics* that must hold with it — restore is
bit-exact, a restore re-arms the snapshot for the next attempt, and
interleaved snapshots stay correct via the epoch fallback.
"""

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.faults.scrub import MemorySnapshot
from repro.gpu.memory import PAGE_ELEMS, GlobalMemory


def make_gmem(n=8 * PAGE_ELEMS):
    gmem = GlobalMemory()
    buf = gmem.from_array("state", np.arange(float(n)))
    return gmem, buf


class TestRestore:
    def test_restore_is_bit_exact(self):
        gmem, buf = make_gmem()
        before = buf.to_numpy()
        snap = MemorySnapshot(gmem)
        buf.write(3, -1.0)
        buf.scatter(slice(PAGE_ELEMS, PAGE_ELEMS + 4), np.full(4, -2.0))
        snap.restore()
        np.testing.assert_array_equal(buf.to_numpy(), before)

    def test_restore_only_copies_dirty_pages(self):
        gmem, buf = make_gmem()
        snap = MemorySnapshot(gmem)
        # Corrupt a page *without* marking it (host-side raw poke), then
        # dirty a different one: O(dirty) restore must fix only the
        # marked page.  This is the documented contract — all device
        # mutations go through marked paths; raw data pokes do not.
        buf.data[0] = -7.0
        buf.write(PAGE_ELEMS, -8.0)
        snap.restore()
        assert buf.data[PAGE_ELEMS] == float(PAGE_ELEMS)  # marked: fixed
        assert buf.data[0] == -7.0  # unmarked: out of contract, kept

    def test_restore_frees_post_mark_allocations(self):
        gmem, buf = make_gmem()
        snap = MemorySnapshot(gmem)
        extra = gmem.alloc("kernel_time", 64, np.float64)
        snap.restore()
        with pytest.raises(MemoryFault):
            gmem.lookup(extra.handle)

    def test_repeated_restore_stays_correct(self):
        gmem, buf = make_gmem()
        before = buf.to_numpy()
        snap = MemorySnapshot(gmem)
        for round_ in range(3):
            buf.write(round_, 100.0 + round_)
            snap.restore()
            np.testing.assert_array_equal(buf.to_numpy(), before)

    def test_restore_rearms_for_o_dirty_restore(self):
        gmem, buf = make_gmem()
        snap = MemorySnapshot(gmem)
        buf.write(0, -1.0)
        snap.restore()
        # The restore reopened the window and re-recorded the epoch, so
        # the next restore copies only marked pages, not the whole buffer.
        buf.data[1] = -7.0
        buf.write(PAGE_ELEMS, -8.0)
        snap.restore()
        assert buf.data[PAGE_ELEMS] == float(PAGE_ELEMS)
        assert buf.data[1] == -7.0
        assert buf.data[0] == 0.0

    def test_scrub_after_restore_detects_and_repairs(self):
        gmem, buf = make_gmem()
        want = buf.to_numpy()
        snap = MemorySnapshot(gmem)
        buf.write(0, 42.0)
        snap.restore()
        buf.flip_bit(PAGE_ELEMS + 1, 3)
        assert snap.scrub() == 1
        np.testing.assert_array_equal(buf.to_numpy(), want)


class TestEpochFallback:
    def test_interleaved_snapshot_falls_back_to_full_copy(self):
        gmem, buf = make_gmem()
        s1 = MemorySnapshot(gmem)
        buf.write(0, -1.0)
        # An unrelated, un-chained snapshot clears the dirty bits s1 was
        # counting on...
        MemorySnapshot(gmem)
        buf.write(PAGE_ELEMS, -2.0)
        # ...so s1 must detect the epoch mismatch and restore fully.
        s1.restore()
        assert buf.data[0] == 0.0
        assert buf.data[PAGE_ELEMS] == float(PAGE_ELEMS)
