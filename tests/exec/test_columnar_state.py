"""Columnar exec-state machinery: merge apply, page capture, undo, pickling.

Pins the parallel executor's refactored data plane:

* ``allocated_since`` walks the handle table in insertion order — the
  micro-assertion that it yields ascending handles without sorting,
  including after free churn punches holes in the table;
* ``_capture_and_purge``/``_apply_records`` round-trip kernel-time
  allocations through the dirty-page wire format bit-identically;
* the columnar write-set apply (one gather/scatter per buffer) matches
  the per-cell semantics, including rollback on stale atomic reads;
* the merge's one cell index answers both cross-block checks: which
  sharing forces a sanitized launch serial, and which stores conflict
  (compared by stored bits);
* ``GlobalWriteRecorder.extract`` builds the columnar write-set straight
  from element and bulk log entries, last writer wins;
* ``GlobalWriteRecorder.undo`` restores memory bit-identically with one
  scatter per buffer and marks every restored page dirty;
* records survive a plain ``pickle`` round trip bit-identically — the
  worker pools' result pipe format.
"""

import pickle

import numpy as np
import pytest

from repro.exec.engine import _apply_records, _capture_and_purge, _CellIndex
from repro.exec.record import (
    OP_ATOMIC,
    OP_STORE,
    BlockRecord,
    GlobalWriteRecorder,
)
from repro.gpu.memory import PAGE_ELEMS, GlobalMemory


class TestAllocatedSinceOrder:
    def test_insertion_order_is_ascending_handles(self):
        gmem = GlobalMemory()
        bufs = [gmem.alloc(f"b{i}", 8, np.float64) for i in range(16)]
        # Punch holes so insertion order is the only thing giving the
        # ascending walk (a sorted() would hide a regression here).
        for buf in bufs[1::3]:
            gmem.free(buf)
        for i in range(16, 24):
            gmem.alloc(f"b{i}", 8, np.float64)
        since = gmem.allocated_since(0)
        handles = [b.handle for b in since]
        assert handles == sorted(handles)
        assert len(handles) == len(set(handles))

    def test_mark_threshold(self):
        gmem = GlobalMemory()
        gmem.alloc("before", 8, np.float64)
        mark = gmem.mark()
        after = gmem.alloc("after", 8, np.float64)
        assert [b.handle for b in gmem.allocated_since(mark)] == [after.handle]


class TestPagedLiveAllocs:
    def test_capture_and_apply_round_trip(self):
        worker = GlobalMemory()
        mark = worker.mark()
        buf = worker.alloc("scratch", 4 * PAGE_ELEMS, np.float64)
        buf.write(1, 1.5)
        buf.write(2 * PAGE_ELEMS + 3, -2.5)
        want = buf.to_numpy()
        survivors = _capture_and_purge(worker, mark)
        assert len(survivors) == 1
        name, size, dtype, pages = survivors[0]
        # Only the two written pages travel.
        assert [p for p, _ in pages] == [0, 2]
        assert not worker.allocated_since(mark)

        coordinator = GlobalMemory()
        rec = BlockRecord(block_id=0, live_allocs=survivors)
        assert _apply_records(coordinator, [rec]) is False
        (rebuilt,) = coordinator.allocated_since(0)
        assert rebuilt.name == name and rebuilt.size == size
        np.testing.assert_array_equal(rebuilt.to_numpy(), want)


class TestColumnarApply:
    def test_write_set_applies_bitwise(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(2 * PAGE_ELEMS))
        b = gmem.from_array("b", np.zeros(8, dtype=np.int64))
        rec = BlockRecord(block_id=0, write_set={
            a.handle: (np.array([0, PAGE_ELEMS]), np.array([0.1, -0.2])),
            # must not round-trip via float
            b.handle: (np.array([7]), np.array([2**62 + 1], dtype=np.int64)),
        })
        assert _apply_records(gmem, [rec]) is False
        assert a.data[0] == np.float64(0.1)
        assert a.data[PAGE_ELEMS] == np.float64(-0.2)
        assert b.data[7] == np.int64(2**62 + 1)

    def test_stale_atomic_read_rolls_back_everything(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(8))
        before = a.to_numpy()
        rec = BlockRecord(
            block_id=0,
            write_set={a.handle: (np.array([1]), np.array([5.0]))},
            # The block observed old=99 under its snapshot; live memory
            # says 0 — the merge must undo the write-set and report it.
            oplog=[(OP_ATOMIC, a.handle, 0, "add", 1.0, np.float64(99.0))],
        )
        assert _apply_records(gmem, [rec]) is True
        np.testing.assert_array_equal(a.to_numpy(), before)

    def test_plain_oplog_store_still_applies(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(8))
        rec = BlockRecord(
            block_id=0,
            oplog=[(OP_STORE, a.handle, 2, np.float64(3.0))],
        )
        assert _apply_records(gmem, [rec]) is False
        assert a.data[2] == 3.0


def _store(handle, idx, value, dtype=np.float64):
    return {handle: (np.array([idx]), np.array([value], dtype=dtype))}


def _atomic(handle, idx):
    return [(OP_ATOMIC, handle, idx, "add", 1.0, np.float64(0.0))]


class TestCellIndex:
    @pytest.mark.parametrize("accesses, shared", [
        pytest.param([{"r": 0}, {"r": 0}], False, id="read-read"),
        pytest.param([{"a": 0}, {"a": 0}], False, id="atomic-atomic"),
        pytest.param([{"a": 0, "r": 0}, {"a": 0}], False,
                     id="atomic+read-atomic"),
        pytest.param([{"w": 0, "r": 0}, {"r": 1}], False, id="disjoint"),
        pytest.param([{"w": 0}, {"w": 0}], True, id="write-write"),
        pytest.param([{"w": 0}, {"r": 0}], True, id="write-read"),
        pytest.param([{"r": 0}, {"a": 0}], True, id="read-atomic"),
        pytest.param([{"w": 0}, {"a": 0}], True, id="write-atomic"),
    ])
    def test_sharing_that_forces_the_serial_rerun(self, accesses, shared):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(4))
        records = []
        for block, acc in enumerate(accesses):
            rec = BlockRecord(block_id=block)
            if "w" in acc:
                rec.write_set = _store(a.handle, acc["w"], 1.0)
            if "a" in acc:
                rec.oplog = _atomic(a.handle, acc["a"])
            if "r" in acc:
                rec.read_cells = {(a.handle, acc["r"])}
            records.append(rec)
        assert _CellIndex(gmem, records).shared() is shared

    @pytest.mark.parametrize("dtype, values, flagged", [
        (np.float64, [1.0, 2.0], True),
        (np.float64, [-0.0, 0.0], True),  # equal values, different bits
        (np.float64, [np.nan, np.nan], False),
        (np.float32, [1.0, 1.0 + 1e-12], False),
    ])
    def test_conflicts_compare_stored_bits(self, dtype, values, flagged):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(4, dtype=dtype))
        records = [
            BlockRecord(block_id=b, write_set=_store(a.handle, 2, v, dtype))
            for b, v in enumerate(values)
        ]
        found = _CellIndex(gmem, records).conflicts(gmem)
        assert [f.extra for f in found] == ([{"blocks": [0, 1]}]
                                            if flagged else [])

    def test_plain_store_against_a_foreign_atomic(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(4))
        records = [
            BlockRecord(block_id=0, write_set=_store(a.handle, 1, 0.0)),
            BlockRecord(block_id=1, oplog=_atomic(a.handle, 1)),
            BlockRecord(block_id=2, oplog=_atomic(a.handle, 1)
                        + [(OP_STORE, a.handle, 1, 0.0)]),
            BlockRecord(block_id=3, oplog=_atomic(a.handle, 3)),
        ]
        (finding,) = _CellIndex(gmem, records).conflicts(gmem)
        assert finding.address == ("a", 1)
        assert finding.extra == {"blocks": [0, 2], "atomic_blocks": [1]}


class TestExtract:
    def test_element_and_bulk_stores_compact_last_writer_wins(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(8, dtype=np.float32))
        rec = GlobalWriteRecorder(gmem.mark())
        rec.on_store(a, 5, 0.1)
        rec.on_store_bulk(a, slice(2, 6), np.array([1.0, 2.0, 3.0, 4.0]))
        rec.on_store(a, 3, 7.5)
        rec.on_store_bulk(a, np.array([0, 0]), np.array([8.0, 9.0]))
        write_set, oplog = rec.extract()
        assert oplog == []
        idx, vals = write_set[a.handle]
        assert idx.dtype == np.int64 and vals.dtype == np.float32
        assert idx.tolist() == [0, 2, 3, 4, 5]
        assert vals.tolist() == [9.0, 1.0, 7.5, 3.0, 4.0]

    def test_atomic_cells_leave_the_write_set_in_commit_order(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.zeros(8))
        rec = GlobalWriteRecorder(gmem.mark())
        rec.on_store_bulk(a, np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        rec.on_atomic(a, 2, "add", 1.0, np.float64(2.0))
        rec.on_store(a, 2, 5.0)
        write_set, oplog = rec.extract()
        idx, vals = write_set[a.handle]
        assert idx.tolist() == [1, 3] and vals.tolist() == [1.0, 3.0]
        assert oplog == [
            (OP_STORE, a.handle, 2, 2.0),
            (OP_ATOMIC, a.handle, 2, "add", 1.0, 2.0),
            (OP_STORE, a.handle, 2, 5.0),
        ]


def _sample_records():
    counters = {"rounds": 3}
    recs = [
        BlockRecord(
            block_id=0,
            counters=counters,
            shared_used=128,
            completed=True,
            write_set={5: (np.arange(300), np.arange(300) * 0.5)},
            oplog=[(OP_ATOMIC, 5, 0, "add", 1.0, np.float64(0.0))],
            side_deltas=({"teams_entered": 1},),
            live_allocs=[("dyn", 8, np.dtype(np.float64),
                          [(0, np.ones(8))])],
        ),
        BlockRecord(
            block_id=1,
            completed=True,
            write_set={7: (np.array([3]), np.array([-9], dtype=np.int64))},
        ),
    ]
    return recs


def _assert_round_trip(records, out):
    assert len(out) == len(records)
    for want, got in zip(records, out):
        assert got.block_id == want.block_id
        assert got.completed == want.completed
        assert got.shared_used == want.shared_used
        assert list(got.write_set) == list(want.write_set)
        for handle, (idx, vals) in want.write_set.items():
            got_idx, got_vals = got.write_set[handle]
            assert got_idx.dtype == idx.dtype and got_vals.dtype == vals.dtype
            assert got_idx.tobytes() == idx.tobytes()
            assert got_vals.tobytes() == vals.tobytes()
        assert got.oplog == want.oplog
        assert got.side_deltas == want.side_deltas


class TestTransport:
    def test_inline_round_trip(self):
        """Worker pools pickle records through the result pipe as they
        are; the columns come back with their bytes and dtypes."""
        records = _sample_records()
        blob = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
        _assert_round_trip(records, pickle.loads(blob))


class TestUndo:
    def test_mixed_log_restores_pre_block_state(self):
        """Element, bulk and atomic entries on repeated cells across two
        buffers (one float32) undo to the exact pre-block bytes."""
        gmem = GlobalMemory()
        rng = np.random.default_rng(3)
        n = 3 * PAGE_ELEMS
        a = gmem.from_array("a", rng.standard_normal(n))
        b = gmem.from_array("b", rng.standard_normal(n).astype(np.float32))
        before = (a.data.copy(), b.data.copy())
        rec = GlobalWriteRecorder(gmem.mark())
        a.clear_dirty()
        b.clear_dirty()

        def store(buf, i, v):
            rec.on_store(buf, i, v)
            buf.write(i, v)

        def bulk(buf, idx, vals):
            rec.on_store_bulk(buf, idx, vals)
            buf.scatter(idx, vals)

        def atomic(buf, i, v):
            old = buf.read(i)
            buf.write(i, old + v)
            rec.on_atomic(buf, i, "add", v, old)

        store(a, 5, 1.0)
        bulk(a, np.array([4, 5, 6, PAGE_ELEMS + 1]), np.arange(4.0))
        atomic(a, 5, 2.5)
        store(a, 5, -7.0)
        bulk(a, slice(2 * PAGE_ELEMS, 2 * PAGE_ELEMS + 8), np.ones(8))
        atomic(a, 2 * PAGE_ELEMS + 3, 1.0)
        store(b, 0, 3.0)
        atomic(b, 0, 1.0)
        bulk(b, np.array([0, 1, 1]), np.array([8.0, 9.0, 10.0], np.float32))
        store(b, 1, 11.0)
        assert not np.array_equal(a.data, before[0])

        a.clear_dirty()
        b.clear_dirty()
        rec.undo()
        assert a.data.tobytes() == before[0].tobytes()
        assert b.data.tobytes() == before[1].tobytes()
        assert a.dirty_page_indices().tolist() == [0, 1, 2]
        assert b.dirty_page_indices().tolist() == [0]
