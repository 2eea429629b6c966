"""Shared-memory block-record handoff for the warm worker pool.

Block records travel in one format on every path: their write-sets are
already columnar (per buffer, one ``int64`` index array plus one value
array in the buffer's dtype — see :mod:`repro.exec.record`), so a
record pickles as a few arrays, not one boxed scalar per cell.  The
per-launch ``fork_map`` path (a one-shot worker pool) sends records
through the result pipe as they are; for the warm pool, whose results
land on every serve request, this module adds one more step:

* **shared-memory handoff** — when the runner executes in a forked
  worker and the pickled records are large, the bytes move through one
  :mod:`multiprocessing.shared_memory` segment and only a tiny
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
from typing import List, Sequence

from repro.exec.record import BlockRecord

__all__ = ["pack_records", "unpack_records", "SHM_MIN_BYTES"]

#: Packed payloads at least this large take the shared-memory lane;
#: smaller ones ride the pipe inline (a segment per tiny result would
#: cost more in syscalls than it saves in copies).
SHM_MIN_BYTES = 64 * 1024


def pack_records(records: Sequence[BlockRecord], *,
                 use_shm: bool = True) -> tuple:
    """Pack records for the pipe: ``("shm", name, size)`` or
    ``("inline", bytes)``.  Falls back to inline when the platform has
    no usable shared memory."""
    blob = pickle.dumps(list(records), protocol=pickle.HIGHEST_PROTOCOL)
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
    return pickle.loads(blob)
