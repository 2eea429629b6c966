"""Block trace recording and script compilation.

:func:`compile_block` drives vectorized generators
(:class:`~repro.jit.vector.VecThreadCtx`) to completion, recording
every yielded event once, and compiles the record into one columnar
:class:`BlockScript` with a precomputed step per warp per event.  All
stability guards fire here — before a single architectural side effect
commits — so a :class:`~repro.jit.vector.JitAbort` always leaves the
block's scalar lane generators untouched at round zero, and the
fallback interpreter replays the block from scratch, bit-identically.

Lockstep pass, per-warp re-trace
================================

One tracer, :func:`_trace`, runs the kernel over a range of warps.  A
block is first traced in *lockstep*: one pass over all of its lanes,
each event compiled into the steps each warp's own pass would record (the
same tags and issue sizes, per-warp sector footprints, per-warp compute
charges, the same committed ``(index, value)`` pairs).  The pass may be
stricter than the per-warp passes but never looser, so a lockstep
success implies per-warp success with equal steps; a lockstep abort
(block-divergent control flow such as a warp-uniform trip count, a
read of ``lane_id`` or ``warp_id``, an out-of-bounds access, any
guard) re-traces the block one warp at a time, and those passes alone
decide the verdict and the deopt reason.  ``tests/gpu/test_jit_lockstep.py``
compares the two step by step.

Soundness of dry-run loads
==========================

Loads gather their data *at compile time*, assuming memory still holds
its pre-block values.  Two guards make that assumption exact:

* **dependence** — a warp never reads a cell it wrote earlier in its
  own trace (and a single store never writes the same cell twice); a
  lockstep pass refuses a read of a cell *any* warp wrote earlier,
  which the per-warp passes would refuse as dependence or isolation;
* **isolation** — after all warps trace, no warp's read set may
  intersect another warp's write set (write/write overlap is fine:
  consumption commits in the same ascending (round, warp) order the
  interpreters use).  Every recorded access keeps the warp of each of
  its lanes, so the check is exact in both kinds of pass.

Block scripts
=============

A compiled block is one :class:`BlockScript`: every step of every warp
as one row of NumPy columns, sorted into the ascending ``(round, warp)``
order the interpreters consume.  A step is one issue of one warp; its
tag is the event's (``T_COMPUTE``, ``T_LOAD``, ``T_STORE``) and its
columns hold everything the cost model needs, fixed at compile time:

``issue``
    the issue-cycle charge: ``op_cost[kind] * max(ops)`` over the warp's
    lanes for a compute step, ``op_cost['ld'|'st'] * npos`` for a load
    or store.
``npos``, ``nelem``, ``transactions``
    the issue's vector positions, element accesses and LSU transactions.
``offsets``/``sectors``
    the step's distinct sectors, ascending, as the slice
    ``sectors[offsets[i]:offsets[i + 1]]`` of one flat int64 stream in
    consume order — :func:`repro.gpu.coalescing.sector_footprint`'s
    answer for the warp's columns (the L1 hit/miss split is left to
    consumption).

``stores`` lists each store's ``(step, buf, commits)`` in consume order,
``commits`` being ``(selector, values)`` pairs ready for bulk
assignment.  A unit-stride store commits every warp of its event at the
event's first step; other stores commit one warp at a time.  ``fault``
is ``None`` or ``(round, warp, buf, prefix, bad_idx)``: an out-of-bounds
access that ends its warp's trace.  Consumption commits the elementwise
``prefix`` (the lane-major writes that precede the fault) and raises the
canonical :class:`~repro.errors.MemoryFault` there.

The tracer records one entry per event, not one per warp: per-warp
charges and sector runs come from a few NumPy passes at the end of the
pass, so a compiled block costs O(events) Python plus a fixed number of
NumPy passes.  Only strided or gathered accesses pay
:func:`~repro.gpu.coalescing.sector_footprint` once per warp.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.coalescing import sector_footprint
from repro.gpu.events import T_COMPUTE, T_LOAD, T_STORE
from repro.jit.vector import JitAbort, LaneVec, VecThreadCtx


class BlockScript:
    """One compiled block: a row per step, in consume order (see the
    module docstring).  ``warp``/``round`` place each step; ``nlanes``
    is every warp's lane count."""

    __slots__ = ("warp", "round", "tag", "issue", "npos", "nelem",
                 "transactions", "offsets", "sectors", "stores", "fault",
                 "nlanes")

    def __init__(self, **cols) -> None:
        for name, value in cols.items():
            setattr(self, name, value)


class _Pass:
    """One trace pass over ``len(lanes)`` warps from ``first_warp``.

    The tracer records one entry per event in the lists below, and
    :meth:`close` derives the per-warp step columns from them in a few
    NumPy passes: ``issue``, ``s0`` (a sector run's first sector),
    ``lens`` and ``transactions``, each ``(events, warps)``.
    ``explicit`` and ``stores`` key a step by its row-major index
    ``event * warps + k``; ``fault`` is ``(event, buf, prefix, bad_idx)``.
    ``tag`` and ``npos`` are lists while the pass runs and arrays after.
    """

    __slots__ = ("first_warp", "lanes", "tag", "npos", "charge_ev",
                 "charge", "vec_charges", "runs", "footprints", "stores",
                 "fault", "issue", "s0", "lens", "transactions", "explicit")

    def __init__(self, first_warp: int, lanes) -> None:
        self.first_warp = first_warp
        #: Per warp: (first lane, end lane), counted from the pass start.
        self.lanes = lanes
        self.tag: list = []
        self.npos: list = []
        #: Compute events: scalar charges by event, and per-warp arrays.
        self.charge_ev: list = []
        self.charge: list = []
        self.vec_charges: list = []
        #: Unit-stride accesses, flat: event, first byte, itemsize.
        self.runs: list = []
        #: Other accesses: (event, k, sectors, transactions) per warp.
        self.footprints: list = []
        self.stores: list = []
        self.fault = None

    def close(self, block) -> "_Pass":
        nev = len(self.tag)
        nw = len(self.lanes)
        self.tag = tag = np.array(self.tag, dtype=np.int8)
        self.npos = npos = np.array(self.npos, dtype=np.int64)
        self.issue = issue = np.empty((nev, nw), dtype=np.float64)
        mem = tag != T_COMPUTE
        issue[mem] = (np.where(tag[mem] == T_LOAD, block._cost_ld,
                               block._cost_st) * npos[mem])[:, None]
        issue[self.charge_ev] = np.array(self.charge, dtype=np.float64)[:, None]
        for e, charge in self.vec_charges:
            issue[e] = charge
        self.s0 = s0 = np.zeros((nev, nw), dtype=np.int64)
        self.lens = lens = np.zeros((nev, nw), dtype=np.int64)
        self.transactions = transactions = np.zeros((nev, nw), dtype=np.int64)
        if self.runs:
            ev, addr, isz = np.array(self.runs, dtype=np.int64).reshape(-1, 3).T
            lanes = np.array(self.lanes, dtype=np.int64)
            sb = block.params.sector_bytes
            # ``sector_footprint`` of every warp's unit-stride run of
            # lanes ``b0 .. b1 - 1``: one sector interval each.
            first = (addr[:, None] + lanes[:, 0] * isz[:, None]) // sb
            last = (addr[:, None] + lanes[:, 1] * isz[:, None] - 1) // sb
            s0[ev] = first
            lens[ev] = transactions[ev] = last - first + 1
        self.explicit = []
        for e, k, secs, tr in self.footprints:
            if secs.__class__ is range:
                s0[e, k] = secs.start
            else:
                self.explicit.append((e * nw + k, secs))
            lens[e, k] = len(secs)
            transactions[e, k] = tr
        return self


class _BufTrack:
    """One buffer's accesses in a block's trace, for the isolation guard.

    ``reads``/``writes`` hold one ``(selector, warp)`` entry per access
    position: ``warp`` is the accessing warp's id, or (lockstep pass) an
    array giving the warp of each element of the selector.
    """

    __slots__ = ("buf", "reads", "writes")

    def __init__(self, buf) -> None:
        self.buf = buf
        self.reads: list = []
        self.writes: list = []


def _warp_span(entries, size: int):
    """Per-cell lowest and highest accessing warp (``-1`` = untouched)."""
    lo = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(size, -1, dtype=np.int64)
    for sel, warp in entries:
        if sel.__class__ is slice:
            view = lo[sel]
            np.minimum(view, warp, out=view)
            view = hi[sel]
            np.maximum(view, warp, out=view)
        else:
            np.minimum.at(lo, sel, warp)
            np.maximum.at(hi, sel, warp)
    return lo, hi


def _check_isolation(track: dict) -> None:
    """Cross-warp isolation: no warp may have read a cell any *other*
    warp writes (at any round) — dry-run gathers assumed pre-block
    values.  A cell passes when it is read or written by nobody, or
    read and written by one and the same warp."""
    for t in track.values():
        if not t.writes or not t.reads:
            continue
        size = t.buf.size
        rlo, rhi = _warp_span(t.reads, size)
        wlo, whi = _warp_span(t.writes, size)
        if ((rhi >= 0) & (whi >= 0) & ((rlo != whi) | (rhi != wlo))).any():
            raise JitAbort("isolation", "cross-warp read/write overlap")


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


def _warp_sel(sel, b0: int, b1: int):
    """The part of a normalized selector that lanes ``b0:b1`` own."""
    if sel[0] == "a":
        return ("a", sel[1] + sel[2] * b0, sel[2])
    return ("v", sel[1][b0:b1])


def compile_block(block, lockstep: bool = True):
    """Trace ``block`` into one :class:`BlockScript`.

    Returns ``(script, lockstep_ok)`` or raises :class:`JitAbort`
    (nothing committed either way).  With ``lockstep`` a multi-warp
    block is first traced in one pass over all of its lanes; that pass
    succeeds only where every per-warp pass would succeed with equal
    steps, so any abort in it (an out-of-bounds access included) just
    re-traces the block one warp at a time, and those passes alone
    decide the verdict and its reason.  ``lockstep=False`` (the trace
    cache's verdict for a block that compiled only per warp) goes
    straight to the per-warp passes.  A one-warp block has one pass.
    """
    nwarps = block.num_warps
    if lockstep or nwarps == 1:
        track: dict = {}
        try:
            passes = [_trace(block, 0, nwarps, track)]
            _check_isolation(track)
        except Exception:
            if nwarps == 1:
                raise
        else:
            return _assemble(block, passes), True
    track = {}
    passes = []
    for w in range(nwarps):
        block.jit_stats.warp_retraces += 1
        passes.append(_trace(block, w, 1, track))
    _check_isolation(track)
    return _assemble(block, passes), False


def _assemble(block, passes) -> BlockScript:
    """Join trace passes into one :class:`BlockScript`: flatten each
    pass's steps, sort them by ``(round, warp)`` (a lockstep pass is
    sorted already) and lay the sector stream out in that order."""
    ws = block.params.warp_size
    first = np.arange(block.num_warps, dtype=np.int64) * ws
    nlanes = np.minimum(first + ws, block.num_threads) - first
    cols, explicit, stores = [], [], []
    fault = None
    at = 0
    for p in passes:
        nev, nw = p.lens.shape
        cols.append((
            np.repeat(np.arange(nev, dtype=np.int64), nw),
            np.tile(np.arange(p.first_warp, p.first_warp + nw,
                              dtype=np.int64), nev),
            np.repeat(p.tag, nw), np.repeat(p.npos, nw), p.issue.ravel(),
            p.s0.ravel(), p.lens.ravel(), p.transactions.ravel(),
        ))
        explicit += [(at + i, secs) for i, secs in p.explicit]
        stores += [(at + i, buf, commits) for i, buf, commits in p.stores]
        # Passes come in warp order, so a tie keeps the lower warp.
        if p.fault is not None and (fault is None or p.fault[0] < fault[0]):
            fault = (p.fault[0], p.first_warp) + p.fault[1:]
        at += nev * nw
    rnd, warp, tag, npos, issue, s0, lens, transactions = (
        np.concatenate(c) for c in zip(*cols))
    if len(passes) > 1:
        order = np.lexsort((warp, rnd))
        rnd, warp, tag, npos, issue, s0, lens, transactions = (
            c[order] for c in (rnd, warp, tag, npos, issue, s0, lens,
                               transactions))
        row = np.empty_like(order)
        row[order] = np.arange(order.size)
        explicit = [(int(row[i]), secs) for i, secs in explicit]
        stores = sorted(((int(row[i]), buf, commits)
                         for i, buf, commits in stores), key=lambda e: e[0])
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    # Every step's sectors as the run from ``s0``; explicit lists overwrite.
    sectors = (np.repeat(s0 - offsets[:-1], lens)
               + np.arange(offsets[-1], dtype=np.int64))
    for i, secs in explicit:
        sectors[offsets[i]:offsets[i + 1]] = secs
    return BlockScript(
        warp=warp, round=rnd, tag=tag, issue=issue, npos=npos,
        nelem=npos * nlanes[warp], transactions=transactions,
        offsets=offsets, sectors=sectors, stores=stores, fault=fault,
        nlanes=nlanes,
    )


def _trace(block, first_warp: int, nwarps: int, track: dict) -> _Pass:
    """Trace warps ``first_warp`` .. ``first_warp + nwarps - 1`` of
    ``block`` in one pass of the kernel generator, recording one entry
    per event.

    A one-warp pass is the reference trace.  A multi-warp (lockstep)
    pass keeps each lane's warp identity wherever the per-warp result
    depends on it — compute charges, sector footprints, store
    distinctness, isolation — and is stricter elsewhere: its dependence
    guard counts every warp's earlier stores, and it aborts on an
    out-of-bounds access instead of recording the fault.

    The tag dispatch below is the whole event contract of the tier:
    ``Compute``, ``Load`` and ``Store`` compile and anything else aborts
    (atomics, barriers, shuffles and votes keep the interpreters'
    parking/commit protocol).  Their constructors accept :class:`LaneVec`
    operands — ``ops``, indices, values — because they fold only
    kind-level data (the op kind, the buffer's space) into ``sig``,
    never the payload.
    """
    params = block.params
    max_rounds = block.max_rounds
    ws = params.warp_size
    sb = params.sector_bytes
    first_tid = first_warp * ws
    n = min((first_warp + nwarps) * ws, block.num_threads) - first_tid
    lockstep = nwarps > 1
    lanes = [(k * ws, min(k * ws + ws, n)) for k in range(nwarps)]
    p = _Pass(first_warp, lanes)
    starts = np.arange(0, n, ws, dtype=np.int64)
    #: Warp identity of the pass's lanes, for the isolation entries.
    warps = (
        np.arange(first_tid, first_tid + n, dtype=np.int64) // ws
        if lockstep
        else first_warp
    )
    vtc = VecThreadCtx(
        first_tid, n, ws, block.block_id, block.num_blocks, block.num_threads
    )
    send = block._entry(vtc, *block._args).send
    cost_of = block._op_cost.get
    track_get = track.get
    #: id(buf) -> cells this pass has stored (the dependence guard).
    written: dict = {}
    tags = p.tag
    nposs = p.npos
    runs = p.runs
    stores = p.stores
    reply = None
    while True:
        try:
            ev = send(reply)
        except StopIteration:
            break
        reply = None
        e = len(tags)
        tag = getattr(ev, "tag", -1)
        if tag == T_COMPUTE:
            cost = cost_of(ev.kind, 1.0)
            ops = ev.ops
            if isinstance(ops, LaneVec):
                peak = np.maximum.reduceat(ops.materialize(), starts)
                p.vec_charges.append((e, cost * peak.astype(np.float64)))
            else:
                p.charge_ev.append(e)
                p.charge.append(cost * float(ops))
            nposs.append(0)
        elif tag == T_LOAD or tag == T_STORE:
            buf = ev.buf
            if buf.space != "global":
                raise JitAbort("event", f"{buf.space}-space access")
            key = id(buf)
            t = track_get(key)
            if t is None:
                t = track[key] = _BufTrack(buf)
            idxs = ev.idxs
            iv = idxs[0] if len(idxs) == 1 else None
            if (
                iv is not None
                and iv.__class__ is LaneVec
                and iv.arr is None
                and iv.stride == 1
                and 0 <= iv.a0
                and iv.a0 + n <= buf.size
            ):
                # Fused fast path: one affine unit-stride in-bounds
                # position — the coalesced-stream shape.  Semantically
                # identical to the general path below, with the sector
                # runs, slice selectors, and distinctness (stride 1)
                # all resolved inline or at the end of the pass.
                a0 = iv.a0
                sobj = slice(a0, a0 + n)
                if tag == T_LOAD:
                    own = written.get(key)
                    if own is not None and own[sobj].any():
                        raise JitAbort(
                            "dependence", "load overlaps own earlier store"
                        )
                    t.reads.append((sobj, warps))
                    reply = (LaneVec.from_array(buf.data[sobj].copy()),)
                else:
                    values = ev.values
                    if len(values) != 1:
                        raise JitAbort("error", "store arity mismatch")
                    va = _materialize_value(values[0], n)
                    wmask = written.get(key)
                    if wmask is None:
                        wmask = written[key] = np.zeros(buf.size, dtype=bool)
                    wmask[sobj] = True
                    t.writes.append((sobj, warps))
                    stores.append((e * nwarps, buf, [(sobj, va)]))
                runs += (e, buf.base + a0 * buf.itemsize, buf.itemsize)
            else:
                selectors = [_norm_index(i, n) for i in idxs]
                npos = len(selectors)
                bad = _first_oob(selectors, n, buf.size)
                if bad is not None and lockstep:
                    raise JitAbort("error", "out-of-bounds access in lockstep")
                # Each warp's own selectors, as its per-warp pass sees them.
                by_warp = [
                    [_warp_sel(sel, b0, b1) for sel in selectors]
                    if lockstep else selectors
                    for b0, b1 in lanes
                ]
                if tag == T_LOAD:
                    if bad is not None:
                        p.fault = (e, buf, (), bad[2])
                        break  # terminal: the fault ends this warp's trace
                    own = written.get(key)
                    out = []
                    for sel in selectors:
                        sobj = _selector_obj(sel, n)
                        if own is not None and own[sobj].any():
                            raise JitAbort(
                                "dependence", "load overlaps own earlier store"
                            )
                        t.reads.append((sobj, warps))
                        out.append(LaneVec.from_array(buf.gather(sobj)))
                    reply = tuple(out)
                else:
                    values = ev.values
                    if len(values) != npos:
                        raise JitAbort("error", "store arity mismatch")
                    for (b0, b1), sels in zip(lanes, by_warp):
                        _check_distinct(sels, b1 - b0)
                    val_arrs = [_materialize_value(v, n) for v in values]
                    if bad is not None:
                        bl, bp, bidx = bad
                        vals_by_pos = [_values_of(s, n) for s in selectors]
                        prefix = []
                        for lane in range(bl + 1):
                            pmax = npos if lane < bl else bp
                            for pos in range(pmax):
                                i = int(vals_by_pos[pos][lane])
                                prefix.append((i, val_arrs[pos][lane]))
                        if prefix:
                            cells = np.array([i for i, _ in prefix], dtype=np.int64)
                            t.writes.append((cells, warps))
                        p.fault = (e, buf, prefix, bidx)
                        break
                    wmask = written.get(key)
                    if wmask is None:
                        wmask = written[key] = np.zeros(buf.size, dtype=bool)
                    for sel in selectors:
                        sobj = _selector_obj(sel, n)
                        wmask[sobj] = True
                        t.writes.append((sobj, warps))
                    for k, ((b0, b1), sels) in enumerate(zip(lanes, by_warp)):
                        stores.append((e * nwarps + k, buf, [
                            (_selector_obj(sel, b1 - b0), va[b0:b1])
                            for sel, va in zip(sels, val_arrs)
                        ]))
                for k, ((b0, b1), sels) in enumerate(zip(lanes, by_warp)):
                    nl = b1 - b0
                    secs, transactions = sector_footprint(
                        [_column(sel, nl) for sel in sels],
                        buf.base,
                        buf.itemsize,
                        sb,
                    )
                    p.footprints.append((e, k, secs, transactions))
            nposs.append(len(idxs))
        else:
            raise JitAbort("event", f"unsupported event {type(ev).__name__}")
        tags.append(tag)
        if len(tags) > max_rounds:
            # The interpreter would raise its canonical runaway-loop
            # SimulationError; let it.
            raise JitAbort("error", "trace exceeds max_rounds")
    return p.close(block)
