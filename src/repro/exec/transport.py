"""Columnar block-record transport for the warm worker pool.

The per-launch ``fork_map`` path (a one-shot worker pool) ships
:class:`~repro.exec.BlockRecord` objects whole: each record's write-set
is a ``(handle, idx) -> value`` dict of NumPy scalars, which pickles as
one boxed object per cell.  For
the warm pool that cost lands on every serve request, so this module
gives the lease a packed wire form:

* **columnar write-sets** — per buffer, one ``int64`` index array plus
  one value array in the buffer's dtype (the cast is the same one the
  eventual per-cell store would apply, so round-tripping is
  bit-identical), instead of thousands of pickled scalar boxes;
* **shared-memory handoff** — when the runner executes in a forked
  worker and the packed payload is large, the pickle bytes move through
  one :mod:`multiprocessing.shared_memory` segment and only a tiny
  ``("shm", name, size)`` descriptor crosses the result pipe.

The in-process paths (pool degradation, ``processes=False``) bypass
packing entirely — ``unpack_records`` passes raw record lists through —
so results never depend on the transport, matching the pool's contract.

Crash window: a worker that dies between creating its segment and the
parent unpacking it leaks that segment until the host cleans ``/dev/shm``
(the worker unregisters the segment from its resource tracker as part
of the handoff).  The pool's crash sites fire before the runner
executes, so injected-fault campaigns do not hit the window; a real
mid-handoff death costs one bounded segment, not correctness — the
chunk is re-dispatched.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Sequence

import numpy as np

from repro.exec.record import BlockRecord

__all__ = ["pack_records", "unpack_records", "SHM_MIN_BYTES"]

#: Packed payloads at least this large take the shared-memory lane;
#: smaller ones ride the pipe inline (a segment per tiny result would
#: cost more in syscalls than it saves in copies).
SHM_MIN_BYTES = 64 * 1024


def _encode(rec: BlockRecord, dtypes: Dict[int, np.dtype]) -> dict:
    """Columnar dict form of one record (worker side, local handles
    already remapped; ``dtypes`` maps handle -> buffer dtype)."""
    columns = []
    by_handle: Dict[int, tuple] = {}
    for (handle, idx), value in rec.write_set.items():
        cols = by_handle.get(handle)
        if cols is None:
            cols = by_handle[handle] = ([], [])
            columns.append((handle, *cols))
        cols[0].append(idx)
        cols[1].append(value)
    packed_cols = [
        (handle, np.asarray(idxs, dtype=np.int64),
         np.asarray(values, dtype=dtypes.get(handle)))
        for handle, idxs, values in columns
    ]
    return {
        "block_id": rec.block_id,
        "counters": rec.counters,
        "shared_used": rec.shared_used,
        "completed": rec.completed,
        "columns": packed_cols,
        "oplog": rec.oplog,
        "read_cells": rec.read_cells,
        "report": rec.report,
        "live_allocs": rec.live_allocs,
        "side_deltas": rec.side_deltas,
        "error": rec.error,
        "deadlock": rec.deadlock,
    }


def _decode(state: dict) -> BlockRecord:
    """Rebuild a record; write-set insertion order (first-seen buffer,
    then chronological cells within it) matches the worker's columns."""
    write_set = {}
    for handle, idxs, values in state["columns"]:
        for k in range(idxs.size):
            write_set[(handle, int(idxs[k]))] = values[k]
    return BlockRecord(
        block_id=state["block_id"],
        counters=state["counters"],
        shared_used=state["shared_used"],
        completed=state["completed"],
        write_set=write_set,
        oplog=state["oplog"],
        read_cells=state["read_cells"],
        report=state["report"],
        live_allocs=state["live_allocs"],
        side_deltas=state["side_deltas"],
        error=state["error"],
        deadlock=state["deadlock"],
    )


def pack_records(records: Sequence[BlockRecord],
                 dtypes: Dict[int, np.dtype],
                 *, use_shm: bool = True) -> tuple:
    """Pack records for the pipe: ``("shm", name, size)`` or
    ``("inline", bytes)``.  Falls back to inline when the platform has
    no usable shared memory."""
    blob = pickle.dumps([_encode(r, dtypes) for r in records],
                        protocol=pickle.HIGHEST_PROTOCOL)
    if use_shm and len(blob) >= SHM_MIN_BYTES:
        try:
            from multiprocessing import resource_tracker, shared_memory

            seg = shared_memory.SharedMemory(create=True, size=len(blob))
            seg.buf[:len(blob)] = blob
            name = seg.name
            seg.close()
            try:
                # Hand ownership to the consumer: the parent's
                # attach/unlink pair balances its own registration.
                resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:
                pass
            return ("shm", name, len(blob))
        except (OSError, ImportError):
            pass
    return ("inline", blob)


def unpack_records(payload) -> List[BlockRecord]:
    """Inverse of :func:`pack_records`.  Raw record lists (the pool's
    in-process paths never pack) pass through untouched."""
    if not (isinstance(payload, tuple) and payload and
            payload[0] in ("shm", "inline")):
        return payload
    if payload[0] == "shm":
        from multiprocessing import shared_memory

        _, name, size = payload
        seg = shared_memory.SharedMemory(name=name)
        try:
            blob = bytes(seg.buf[:size])
        finally:
            seg.close()
            seg.unlink()
    else:
        blob = payload[1]
    return [_decode(state) for state in pickle.loads(blob)]
