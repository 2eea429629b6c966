"""Per-block execution records: write-sets, atomic logs, and error capsules.

The parallel launch engine (:mod:`repro.exec.engine`) runs every thread
block against a *read-snapshot* of global memory and ships a
:class:`BlockRecord` back to the coordinator.  Two pieces make that
possible:

:class:`GlobalWriteRecorder`
    The block scheduler's mutation hook.  It observes every global-memory
    store and atomic a block performs (in exact commit order), remembers
    the overwritten values so the block's effects can be *undone* —
    restoring the snapshot for the next block in the shard — and compacts
    the observations into the record's merge inputs:

    * ``write_set`` — final value per plainly-stored element (cells no
      atomic ever touched), kept columnar from the log to the merge: per
      buffer handle, one ``int64`` index array and one value array in
      the buffer's dtype, built straight from the element and bulk
      (whole-warp) log entries.  Every transport ships these arrays as
      they are, and the merge scatters them last-writer-wins in block
      order;
    * ``oplog`` — the chronological store/atomic sequence for cells that
      at least one atomic touched; replayed op-by-op through
      :func:`repro.gpu.atomics.apply_atomic` so read-modify-write results
      compose exactly as a serial launch would have produced them.  Each
      atomic entry also carries the old value the block *observed* under
      its snapshot — the merge's read-validation handle for detecting
      blocks whose behaviour depended on another block's atomics.

    Only buffers that existed *before* the launch (handle below the
    watermark) are tracked: buffers a kernel allocates while running
    (e.g. the runtime's per-team ``dyn_counter`` scratch) are block-local
    by construction and never merged.

:class:`ErrorCapsule`
    A transport-safe wrapper for exceptions raised inside a worker.  The
    original exception object is carried when it pickles (the normal case
    — every :mod:`repro.errors` type does); otherwise the capsule falls
    back to ``(type name, message, attrs)`` and reconstructs an instance
    of the same class on the coordinator side.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Oplog entry tags.
OP_STORE = "s"
OP_ATOMIC = "a"

#: Internal log-only tag for vectorized stores (compacted to OP_STORE
#: semantics at :meth:`GlobalWriteRecorder.extract` time).
_LOG_BULK = "S"


class GlobalWriteRecorder:
    """Undoable log of one block's global-memory mutations.

    ``watermark`` is the global-memory handle watermark
    (:meth:`repro.gpu.memory.GlobalMemory.mark`) taken before the launch:
    only writes to buffers allocated before it are tracked.  The block
    scheduler calls :meth:`on_store` *before* applying a store (so the
    overwritten values can be captured) and :meth:`on_atomic` *after*
    applying an atomic (the old value is the atomic's own result).
    """

    __slots__ = ("watermark", "_log", "track_reads", "read_cells")

    def __init__(self, watermark: int, track_reads: bool = False) -> None:
        self.watermark = int(watermark)
        # ('s', buf, idx, old, new) | ('a', buf, idx, op, operand, old)
        self._log: List[tuple] = []
        #: When sanitizing, the merge also needs the cells a block *read*
        #: to decide whether the serial monitor could have flagged a
        #: cross-block race involving them.
        self.track_reads = bool(track_reads)
        self.read_cells: set = set()

    # -- scheduler hooks ---------------------------------------------------
    def tracks(self, buf) -> bool:
        return 0 < buf.handle < self.watermark

    def on_load(self, buf, idxs) -> None:
        """Record read cells (only when ``track_reads``; values not kept)."""
        handle = buf.handle
        for i in idxs:
            self.read_cells.add((handle, int(i)))

    def on_store(self, buf, idx, value) -> None:
        """Record one element store (called just before the write applies).

        The scheduler interleaves the hook with the writes element by
        element so a :class:`~repro.errors.MemoryFault` mid-run leaves
        exactly the prefix a serial launch would have left — ``buf.read``
        bounds-checks with the same fault the write itself would raise.
        """
        self._log.append((OP_STORE, buf, int(idx), buf.read(idx), value))

    def on_store_bulk(self, buf, idxs, values) -> None:
        """Record one vectorized store (called just before the bulk write).

        ``idxs`` is a slice or integer index array and ``values`` the
        matching per-element array — the JIT consumption engine's
        whole-warp commit shape.  Faulting stores never come through
        here: their committed prefix uses the elementwise
        :meth:`on_store` so the undo/extract order matches the
        interpreters exactly.
        """
        if isinstance(idxs, slice):
            idx = np.arange(idxs.start, idxs.stop, dtype=np.int64)
        else:
            idx = np.asarray(idxs, dtype=np.int64)
        self._log.append(
            (_LOG_BULK, buf, idx, buf.data[idx].copy(), np.asarray(values))
        )

    def on_atomic(self, buf, idx, op, operand, old) -> None:
        """Record one applied atomic (old value already in hand)."""
        if not self.tracks(buf):
            return
        self._log.append((OP_ATOMIC, buf, int(idx), op, operand, old))

    # -- lifecycle ---------------------------------------------------------
    def undo(self) -> None:
        """Revert every recorded mutation, restoring the pre-block snapshot.

        A cell's pre-block value is the old value of the first log entry
        that touched it, so each buffer is restored with one scatter of
        those values; the scatter marks every restored page dirty, which
        ``MemorySnapshot`` chaining relies on.
        """
        # handle -> (buf, element idxs, element olds, bulk parts)
        cols: Dict[int, tuple] = {}
        for e in self._log:
            buf = e[1]
            col = cols.get(buf.handle)
            if col is None:
                col = cols[buf.handle] = (buf, [], [], [])
            if e[0] == _LOG_BULK:
                col[3].append((len(col[1]), e[2], e[3]))
            else:
                col[1].append(e[2])
                col[2].append(e[3] if e[0] == OP_STORE else e[5])
        for buf, idxs, olds, bulks in cols.values():
            idx, old = _splice(buf.dtype, idxs, olds, bulks)
            cells, first = np.unique(idx, return_index=True)
            buf.scatter(cells, old[first])

    def extract(self) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]], List[tuple]]:
        """Compact the log into ``(write_set, oplog)`` keyed by handle.

        Cells at least one atomic touched keep their full chronological
        op sequence (interleaving matters for replay).  Purely-stored
        cells compact to their final value: ``write_set`` maps each
        handle to ``(idx, values)`` — ascending unique ``int64`` indices
        and the last value the block stored to each, cast to the
        buffer's dtype (the cast the store itself applied).
        """
        atomic_cells: Dict[int, set] = {}
        for e in self._log:
            if e[0] == OP_ATOMIC:
                atomic_cells.setdefault(e[1].handle, set()).add(e[2])
        # handle -> (dtype, element idxs, element values, bulk parts); a
        # bulk part remembers how many element stores preceded it.
        cols: Dict[int, tuple] = {}
        oplog: List[tuple] = []
        for e in self._log:
            tag = e[0]
            handle = e[1].handle
            if tag == OP_ATOMIC:
                # Keep the old value the block *observed* under its
                # snapshot: the merge validates it against the replayed
                # value to detect cross-block atomic dependence.
                oplog.append((OP_ATOMIC, handle, e[2], e[3], e[4], e[5]))
                continue
            cells = atomic_cells.get(handle) if atomic_cells else None
            if tag == OP_STORE and cells is not None and e[2] in cells:
                oplog.append((OP_STORE, handle, e[2], e[4]))
                continue
            col = cols.get(handle)
            if col is None:
                col = cols[handle] = (e[1].dtype, [], [], [])
            if tag == OP_STORE:
                col[1].append(e[2])
                col[2].append(e[4])
                continue
            idx, vals = e[2], e[4]
            if cells is not None:
                # Atomic-touched cells leave the bulk store in array order
                # — the elementwise commit order of the interpreters.
                hit = np.isin(idx, list(cells))
                for k in np.flatnonzero(hit):
                    oplog.append((OP_STORE, handle, int(idx[k]), vals[k]))
                idx, vals = idx[~hit], vals[~hit]
            col[3].append((len(col[1]), idx, vals))
        write_set: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for handle, (dtype, idxs, vals, bulks) in cols.items():
            idx, val = _splice(dtype, idxs, vals, bulks)
            if idx.size:
                write_set[handle] = last_writes(idx, val)
        return write_set, oplog


def _splice(dtype, idxs: list, vals: list,
            bulks: list) -> Tuple[np.ndarray, np.ndarray]:
    """One buffer's logged ``(idx, values)`` columns in commit order.

    ``idxs``/``vals`` hold the element entries; each bulk part
    ``(split, idx, values)`` goes back in after the first ``split`` of
    them.  Values are cast to ``dtype``.
    """
    idx = np.asarray(idxs, dtype=np.int64)
    val = np.asarray(vals, dtype=dtype)
    if not bulks:
        return idx, val
    idx_parts, val_parts, at = [], [], 0
    for split, bulk_idx, bulk_vals in bulks:
        idx_parts += [idx[at:split], bulk_idx]
        val_parts += [val[at:split], np.asarray(bulk_vals, dtype=dtype)]
        at = split
    return (np.concatenate(idx_parts + [idx[at:]]),
            np.concatenate(val_parts + [val[at:]]))


def last_writes(idx: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compact chronological ``(idx, vals)`` stores to the final value per
    cell: ascending unique indices, each with its last value."""
    cells, last = np.unique(idx[::-1], return_index=True)
    return cells, vals[::-1][last]


class ErrorCapsule:
    """A worker-side exception, shipped to (and re-raised by) the coordinator."""

    __slots__ = ("exception", "type_name", "message", "attrs")

    #: Structured-provenance attributes worth preserving across transport.
    _ATTRS = ("block_id", "round", "lanes", "buffer", "index", "sites")

    def __init__(self, exc: BaseException) -> None:
        self.type_name = type(exc).__name__
        self.message = str(exc)
        self.attrs = {}
        for name in self._ATTRS:
            val = getattr(exc, name, None)
            if val is not None:
                self.attrs[name] = val
        #: The live exception: in-process re-raises hand back this very
        #: object, whatever its class.
        self.exception: Optional[BaseException] = exc

    def __getstate__(self):
        exc = self.exception
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            # Unpicklable (e.g. a kernel raised something holding a live
            # generator, or a function-local class); the far side
            # reconstructs it from the fields.
            exc = None
        return (exc, self.type_name, self.message, self.attrs)

    def __setstate__(self, state):
        self.exception, self.type_name, self.message, self.attrs = state

    def rebuild(self) -> BaseException:
        if self.exception is not None:
            return self.exception
        import builtins

        from repro import errors as _errors

        cls = getattr(_errors, self.type_name, None)
        if cls is None:
            cls = getattr(builtins, self.type_name, None)
        if not (isinstance(cls, type) and issubclass(cls, BaseException)):
            cls = _errors.SimulationError
        try:
            exc = cls(self.message)
        except Exception:
            exc = _errors.SimulationError(f"{self.type_name}: {self.message}")
        for name, val in self.attrs.items():
            try:
                setattr(exc, name, val)
            except Exception:
                pass
        return exc

    def reraise(self) -> None:
        raise self.rebuild()


@dataclass
class BlockRecord:
    """Everything one isolated block execution produced.

    The coordinator merges records in ascending ``block_id``; a record
    with ``error`` set marks the cutoff — serial execution would never
    have run any later block.
    """

    block_id: int
    #: Scheduler counters (partial if the block errored mid-run).
    counters: object = None
    #: Shared-memory bytes the block used (0 unless it ran to completion,
    #: mirroring the serial launch loop, which skips the update when a
    #: block deadlocks in report mode).
    shared_used: int = 0
    completed: bool = False
    #: Final values of plainly-stored global cells, per buffer handle:
    #: ``(ascending int64 indices, values in the buffer's dtype)``.
    write_set: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    #: Chronological store/atomic ops on atomic-touched cells.
    oplog: List[tuple] = field(default_factory=list)
    #: Tracked cells the block read (populated only under the sanitizer;
    #: drives cross-block race fallback in the merge).
    read_cells: set = field(default_factory=set)
    #: Per-block sanitizer report (None when not sanitizing).
    report: object = None
    #: Global allocations the kernel made and never freed (e.g. the
    #: runtime's per-team ``dyn_counter``, a leaked sharing fallback),
    #: captured as ``(name, size, dtype, dirty_pages)`` — only the pages
    #: the kernel actually wrote travel (the rest is still the zero fill
    #: a fresh allocation starts with) — so the coordinator can recreate
    #: them; serial launches leave them live in global memory and tests
    #: assert on ``live_bytes`` growth.
    live_allocs: List[tuple] = field(default_factory=list)
    #: Per-block numeric deltas of the launch's side-state objects.
    side_deltas: Tuple[Dict[str, float], ...] = ()
    #: Exception the block raised, if any.
    error: Optional[ErrorCapsule] = None
    #: True when ``error`` is a DeadlockError (drives report-mode halting).
    deadlock: bool = False
