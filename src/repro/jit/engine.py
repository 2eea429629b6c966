"""Scripted consumption: run a compiled block and keep every counter honest.

:func:`try_run_jit` is the third round engine
(:meth:`repro.gpu.block.ThreadBlock.run` dispatches to it when the
block's engine is ``"jit"``).  It checks the trace cache, compiles the
block (:mod:`repro.jit.compile`: one lockstep pass over the whole
block, re-traced warp by warp only when that pass aborts or the cache
says it will), and on success *consumes* the block script: its stores
commit in the exact ascending ``(round, warp)`` order the interpreters
use, and its counters — the L1 hit/miss split, the stall rounds, the
cycle folds — come from the script's columns in a fixed number of
NumPy passes, equal to the interpreters' to the bit, faults included
(see :func:`_consume`).  On any guard failure it returns ``None`` with
zero side effects committed, and the caller falls back to the fast
interpreter, which replays the block from round zero ("replay from the
last round boundary" is trivially exact because compilation commits
nothing).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.events import T_LOAD, T_STORE
from repro.gpu.memory import PAGE_SHIFT
from repro.jit.compile import compile_block
from repro.jit.trace import PER_WARP, TRACE_CACHE, trace_key
from repro.jit.vector import JitAbort


def try_run_jit(block):
    """Attempt JIT execution of ``block``.

    Returns the block's :class:`~repro.gpu.counters.BlockCounters` on
    success, or ``None`` (having committed nothing) when the block must
    deoptimize to the interpreter.  Canonical kernel errors — memory
    faults with their partial commits — raise exactly as the
    interpreters would.
    """
    stats = block.jit_stats
    key = trace_key(
        block._entry,
        block._args,
        block.block_id,
        block.num_blocks,
        block.num_threads,
        block.params.warp_size,
    )
    if key is None:
        verdict, found = None, False
    else:
        verdict, found = TRACE_CACHE.lookup(key)
    if found:
        stats.trace_cache_hits += 1
    else:
        stats.trace_cache_misses += 1
    if found and verdict is not None and verdict != PER_WARP:
        # Known-unstable trace: replay the recorded deopt without
        # re-running the doomed dry-run.
        stats.note_deopt(verdict)
        return None
    try:
        # A block known to compile only per warp skips the doomed
        # lockstep pass.
        script, lockstep = compile_block(block, verdict != PER_WARP)
    except JitAbort as abort:
        reason = abort.reason
    except Exception:
        # Any unexpected failure mid-trace is a guard by definition:
        # nothing was committed, and the interpreter will reproduce the
        # kernel's canonical behaviour (including its exceptions).
        reason = "error"
    else:
        if key is not None:
            TRACE_CACHE.store(key, None if lockstep else PER_WARP)
        stats.note_compiled(block.num_warps, lockstep)
        return _consume(block, script)
    if key is not None:
        TRACE_CACHE.store(key, reason)
    stats.note_deopt(reason)
    return None


def _consume(block, script):
    """Run a compiled block: its stores, then its counters from the
    script's columns.

    Stores commit in the script's ascending ``(round, warp)`` order,
    each through the recorder's bulk hook when it tracks the buffer.
    The counters equal the interpreters' to the bit: integer counters
    are column sums; ``issue_cycles`` and ``mem_cycles`` are sequential
    folds in consume order (``np.add.accumulate``, whose order is the
    interpreters' left-to-right one; ``np.sum`` adds pairwise); L1 hits
    and misses come from first occurrences in the sector stream when
    every distinct sector fits an empty cache, which then cannot evict,
    and from a walk of the stream through the block's
    :class:`~repro.gpu.coalescing.L1SectorCache` otherwise.  A fault
    stops the block at its step: the steps before it count, the rounds
    before its round complete, and its prefix commits before the
    canonical :class:`~repro.errors.MemoryFault` raises.
    """
    c = block.counters
    params = block.params
    rec = block.recorder
    rnd = script.round
    fault = script.fault
    if fault is None:
        stop = done = rnd.size
        rounds = int(rnd[-1]) + 1 if rnd.size else 0
    else:
        rounds = fault[0]
        key = rnd * block.num_warps + script.warp
        stop = int(np.searchsorted(key, rounds * block.num_warps + fault[1]))
        done = int(np.searchsorted(rnd, rounds))
    for step, buf, commits in script.stores:
        if step >= stop:
            break
        mark = buf.mark_dirty_sel
        data = buf.data
        tracked = rec is not None and rec.tracks(buf)
        for sel, values in commits:
            if tracked:
                rec.on_store_bulk(buf, sel, values)
            data[sel] = values
            mark(sel)
    tag = script.tag[:stop]
    load = tag == T_LOAD
    store = tag == T_STORE
    mem = load | store
    offsets = script.offsets[:stop + 1]
    stream = script.sectors[:offsets[-1]]
    lens = np.diff(offsets)
    l1 = block._l1
    distinct, first = np.unique(stream, return_index=True)
    if not len(l1) and distinct.size <= l1.cap:
        seen = np.zeros(stream.size + 1, dtype=np.int64)
        seen[first + 1] = 1
        np.cumsum(seen, out=seen)
        misses = np.diff(seen[offsets])
    else:
        access = l1.access
        sectors = stream.tolist()
        bounds = offsets.tolist()
        misses = np.zeros(stop, dtype=np.int64)
        for i in np.flatnonzero(mem).tolist():
            misses[i] = access(sectors[bounds[i]:bounds[i + 1]])[1]
    hits = lens - misses
    transactions = script.transactions[:stop]
    nelem = script.nelem[:stop]
    c.issues += stop
    c.issue_cycles = _fold(c.issue_cycles, script.issue[:stop])
    c.loads += int(nelem[load].sum())
    c.stores += int(nelem[store].sum())
    c.l1_hits += int(hits.sum())
    c.l1_misses += int(misses.sum())
    c.global_load_sectors += int(misses[load].sum())
    c.global_store_sectors += int(misses[store].sum())
    c.lsu_transactions += int(transactions.sum())
    c.mem_cycles = _fold(
        c.mem_cycles,
        misses[mem] * params.sector_cycles
        + hits[mem] * params.l1_sector_cycles
        + transactions[mem] * params.lsu_transaction_cycles,
    )
    c.lane_steps += int(script.nlanes[script.warp[:done]].sum())
    stalled = (load & (misses > 0))[:done]
    c.mem_serial_rounds += np.unique(rnd[:done][stalled]).size
    c.rounds += rounds
    if fault is not None:
        # Commit the lane-major prefix, then fault.
        _, _, buf, prefix, bad_idx = fault
        tracked = rec is not None and rec.tracks(buf)
        data = buf.data
        dirty = buf.dirty
        for i, v in prefix:
            if tracked:
                rec.on_store(buf, i, v)
            data[i] = v
            dirty[i >> PAGE_SHIFT] = 1
        buf.check_index(bad_idx)
        raise AssertionError("unreachable: bad_idx was in bounds")
    return c


def _fold(total, terms: np.ndarray):
    """``total + terms[0] + terms[1] + ...``, added left to right as the
    interpreters add them, one step at a time."""
    if not terms.size:
        return total
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])
