"""Warp trace recording and script compilation.

:func:`compile_block` drives one vectorized generator per warp
(:class:`~repro.jit.vector.VecThreadCtx`) to completion, translating
every yielded event into one precomputed *script step*.  All stability
guards fire here — before a single architectural side effect commits —
so a :class:`~repro.jit.vector.JitAbort` always leaves the block's
scalar lane generators untouched at round zero, and the fallback
interpreter replays the block from scratch, bit-identically.

Soundness of dry-run loads
==========================

Loads gather their data *at compile time*, assuming memory still holds
its pre-block values.  Two guards make that assumption exact:

* **dependence** — a warp never reads a cell it wrote earlier in its
  own trace (and a single store never writes the same cell twice);
* **isolation** — after all warps trace, no warp's read set may
  intersect another warp's write set (write/write overlap is fine:
  consumption commits in the same ascending (round, warp) order the
  interpreters use).

Script steps
============

``('C', cycles)``
    one converged compute issue; ``cycles`` is the precomputed
    ``op_cost[kind] * max(ops)`` charge.
``('L', npos, nelem, secs, transactions)``
    one load issue; ``secs``/``transactions`` precompute the sector
    footprint with the fast interpreter's cost model,
    :func:`repro.gpu.coalescing.sector_footprint` (the L1 hit/miss split
    stays dynamic at consumption).
``('S', npos, nelem, secs, transactions, buf, commits)``
    one store issue; ``commits`` is a per-position list of
    ``(selector, values)`` ready for bulk assignment.
``('F', buf, prefix, bad_idx)``
    an out-of-bounds access: commit the elementwise ``prefix`` (the
    lane-major writes that precede the fault), then raise the
    canonical :class:`~repro.errors.MemoryFault`.  Always terminal.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.coalescing import run_sectors, sector_footprint
from repro.gpu.events import T_COMPUTE, T_LOAD, T_STORE
from repro.jit.vector import JitAbort, LaneVec, VecThreadCtx


class WarpScript:
    """One warp's fully resolved event script."""

    __slots__ = ("steps", "nlanes")

    def __init__(self, steps, nlanes: int) -> None:
        self.steps = steps
        self.nlanes = nlanes


class _BufTrack:
    """Per-buffer read/write footprints, by warp, for the guard checks."""

    __slots__ = ("buf", "reads", "writes")

    def __init__(self, buf) -> None:
        self.buf = buf
        self.reads: dict = {}  # warp id -> bool mask
        self.writes: dict = {}


def _mask_for(slot: dict, w: int, size: int) -> np.ndarray:
    m = slot.get(w)
    if m is None:
        m = slot[w] = np.zeros(size, dtype=bool)
    return m


def _norm_index(val, nlanes: int):
    """One index position -> ``('a', a0, stride)`` exact affine or
    ``('v', int64 array)``, applying the scalar engines' ``int()``
    truncation to non-integer payloads."""
    if isinstance(val, LaneVec):
        if val.arr is None:
            return ("a", val.a0, val.stride)
        arr = val.arr
        if arr.dtype != np.int64:
            arr = arr.astype(np.int64)
        return ("v", arr)
    if isinstance(val, (bool, int, np.integer, float, np.floating)):
        return ("a", int(val), 0)
    raise JitAbort("event", f"unsupported index payload {type(val).__name__}")


def _values_of(sel, nlanes: int) -> np.ndarray:
    """Materialized per-lane index values for a normalized selector."""
    if sel[0] == "a":
        return sel[1] + sel[2] * np.arange(nlanes, dtype=np.int64)
    return sel[1]


def _column(sel, nlanes: int):
    """Cost-model column of a normalized selector: a ``(first, last)``
    run for unit-stride affine positions, else the lane indices."""
    if sel[0] == "a" and (sel[2] == 1 or nlanes == 1):
        return sel[1], sel[1] + sel[2] * (nlanes - 1)
    return _values_of(sel, nlanes)


def _first_oob(selectors, nlanes: int, size: int):
    """First out-of-bounds ``(lane, pos, idx)`` in the lane-major order
    the scalar side-effect pass walks, or ``None``.  Affine selectors
    are monotone, so two endpoint checks decide the common case."""
    bad = None
    for pos, sel in enumerate(selectors):
        if sel[0] == "a":
            a0, s = sel[1], sel[2]
            last = a0 + s * (nlanes - 1)
            if 0 <= a0 < size and 0 <= last < size:
                continue
            lane = 0
            while 0 <= a0 + s * lane < size:
                lane += 1
            idx = a0 + s * lane
        else:
            vals = sel[1]
            invalid = (vals < 0) | (vals >= size)
            if not invalid.any():
                continue
            lane = int(np.argmax(invalid))
            idx = int(vals[lane])
        if bad is None or lane < bad[0] or (lane == bad[0] and pos < bad[1]):
            bad = (lane, pos, idx)
    return bad


def _check_distinct(selectors, nlanes: int) -> None:
    """Dependence guard: a single store may not write one cell twice
    (the scalar engines commit duplicates in lane order; a bulk
    assignment cannot).  Affine strided positions are distinct by
    construction, so only materialized or multi-position index sets pay
    for a uniqueness pass."""
    npos = len(selectors)
    if npos == 0:
        return
    if npos == 1:
        sel = selectors[0]
        if sel[0] == "a":
            if sel[2] != 0 or nlanes == 1:
                return
        elif nlanes == 1 or np.unique(sel[1]).size == nlanes:
            return
        raise JitAbort("dependence", "store writes a cell twice")
    all_idx = np.concatenate([_values_of(s, nlanes) for s in selectors])
    if np.unique(all_idx).size != nlanes * npos:
        raise JitAbort("dependence", "store writes a cell twice")


def _materialize_value(v, nlanes: int) -> np.ndarray:
    if isinstance(v, LaneVec):
        return v.materialize()
    return np.full(nlanes, v)


def _selector_obj(sel, nlanes: int):
    """Commit/bookkeeping selector: a slice for unit-stride affine runs,
    else the materialized index array."""
    if sel[0] == "a" and sel[2] == 1:
        return slice(sel[1], sel[1] + nlanes)
    return _values_of(sel, nlanes)


def compile_block(block):
    """Trace every warp of ``block``; returns a list of
    :class:`WarpScript` or raises :class:`JitAbort` at the first failing
    warp (nothing committed either way)."""
    params = block.params
    op_cost = block._op_cost
    max_rounds = block.max_rounds
    ws = params.warp_size
    sb = params.sector_bytes
    track: dict = {}  # id(buf) -> _BufTrack
    scripts = []
    for w in range(block.num_warps):
        nlanes = min(ws, block.num_threads - w * ws)
        vtc = VecThreadCtx(
            w,
            nlanes,
            ws,
            block.block_id,
            block.num_blocks,
            block.num_threads,
        )
        gen = block._entry(vtc, *block._args)
        steps: list = []
        send = gen.send
        append = steps.append
        cost_of = op_cost.get
        track_get = track.get
        reply = None
        while True:
            try:
                ev = send(reply)
            except StopIteration:
                break
            reply = None
            tag = getattr(ev, "tag", -1)
            if tag == T_COMPUTE:
                ops = ev.ops
                if isinstance(ops, LaneVec):
                    ops = ops.materialize().max()
                append(("C", cost_of(ev.kind, 1.0) * ops))
            elif tag == T_LOAD or tag == T_STORE:
                buf = ev.buf
                if buf.space != "global":
                    raise JitAbort("event", f"{buf.space}-space access")
                idxs = ev.idxs
                iv = idxs[0] if len(idxs) == 1 else None
                if (
                    iv is not None
                    and iv.__class__ is LaneVec
                    and iv.arr is None
                    and iv.stride == 1
                    and 0 <= iv.a0
                    and iv.a0 + nlanes <= buf.size
                ):
                    # Fused fast path: one affine unit-stride in-bounds
                    # position — the coalesced-stream shape.  Semantically
                    # identical to the general path below, with the run
                    # column, slice selector, and distinctness (stride 1)
                    # all resolved inline.
                    a0 = iv.a0
                    sobj = slice(a0, a0 + nlanes)
                    secs, transactions = run_sectors(
                        a0, a0 + nlanes - 1, buf.base, buf.itemsize, sb
                    )
                    key = id(buf)
                    t = track_get(key)
                    if t is None:
                        t = track[key] = _BufTrack(buf)
                    if tag == T_LOAD:
                        own = t.writes.get(w)
                        if own is not None and own[sobj].any():
                            raise JitAbort(
                                "dependence", "load overlaps own earlier store"
                            )
                        rmask = t.reads.get(w)
                        if rmask is None:
                            rmask = t.reads[w] = np.zeros(buf.size, dtype=bool)
                        rmask[sobj] = True
                        reply = (LaneVec.from_array(buf.data[sobj].copy()),)
                        append(("L", 1, nlanes, secs, transactions))
                    else:
                        values = ev.values
                        if len(values) != 1:
                            raise JitAbort("error", "store arity mismatch")
                        va = _materialize_value(values[0], nlanes)
                        wmask = t.writes.get(w)
                        if wmask is None:
                            wmask = t.writes[w] = np.zeros(buf.size, dtype=bool)
                        wmask[sobj] = True
                        append(
                            ("S", 1, nlanes, secs, transactions, buf,
                             [(sobj, va)])
                        )
                    if len(steps) > max_rounds:
                        raise JitAbort("error", "trace exceeds max_rounds")
                    continue
                selectors = [_norm_index(i, nlanes) for i in idxs]
                npos = len(selectors)
                bad = _first_oob(selectors, nlanes, buf.size)
                key = id(buf)
                t = track_get(key)
                if t is None:
                    t = track[key] = _BufTrack(buf)
                if tag == T_LOAD:
                    if bad is not None:
                        append(("F", buf, (), bad[2]))
                        break  # terminal: the fault ends this warp's trace
                    own_writes = t.writes.get(w)
                    rmask = _mask_for(t.reads, w, buf.size)
                    out = []
                    for sel in selectors:
                        sobj = _selector_obj(sel, nlanes)
                        if own_writes is not None and own_writes[sobj].any():
                            raise JitAbort(
                                "dependence", "load overlaps own earlier store"
                            )
                        rmask[sobj] = True
                        out.append(LaneVec.from_array(buf.gather(sobj)))
                    secs, transactions = sector_footprint(
                        [_column(sel, nlanes) for sel in selectors],
                        buf.base,
                        buf.itemsize,
                        sb,
                    )
                    append(("L", npos, nlanes * npos, secs, transactions))
                    reply = tuple(out)
                else:
                    values = ev.values
                    if len(values) != npos:
                        raise JitAbort("error", "store arity mismatch")
                    _check_distinct(selectors, nlanes)
                    val_arrs = [_materialize_value(v, nlanes) for v in values]
                    wmask = _mask_for(t.writes, w, buf.size)
                    if bad is not None:
                        bl, bp, bidx = bad
                        vals_by_pos = [_values_of(s, nlanes) for s in selectors]
                        prefix = []
                        for lane in range(bl + 1):
                            pmax = npos if lane < bl else bp
                            for pos in range(pmax):
                                i = int(vals_by_pos[pos][lane])
                                prefix.append((i, val_arrs[pos][lane]))
                                wmask[i] = True
                        append(("F", buf, prefix, bidx))
                        break
                    commits = []
                    for sel, va in zip(selectors, val_arrs):
                        sobj = _selector_obj(sel, nlanes)
                        wmask[sobj] = True
                        commits.append((sobj, va))
                    secs, transactions = sector_footprint(
                        [_column(sel, nlanes) for sel in selectors],
                        buf.base,
                        buf.itemsize,
                        sb,
                    )
                    append(
                        ("S", npos, nlanes * npos, secs, transactions, buf, commits)
                    )
            else:
                raise JitAbort("event", f"unsupported event {type(ev).__name__}")
            if len(steps) > max_rounds:
                # The interpreter would raise its canonical runaway-loop
                # SimulationError; let it.
                raise JitAbort("error", "trace exceeds max_rounds")
        scripts.append(WarpScript(steps, nlanes))
    # Cross-warp isolation: no warp may have read a cell any *other* warp
    # writes (at any round) — dry-run gathers assumed pre-block values.
    for t in track.values():
        if not t.writes or not t.reads:
            continue
        total = np.zeros(t.buf.size, dtype=np.int32)
        for m in t.writes.values():
            total += m
        for w, rmask in t.reads.items():
            own = t.writes.get(w)
            others = (total - own) > 0 if own is not None else total > 0
            if (rmask & others).any():
                raise JitAbort("isolation", "cross-warp read/write overlap")
    return scripts
