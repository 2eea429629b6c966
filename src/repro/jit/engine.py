"""Scripted consumption: run a compiled block and keep every counter honest.

:func:`try_run_jit` is the third round engine
(:meth:`repro.gpu.block.ThreadBlock.run` dispatches to it when the
block's engine is ``"jit"``).  It checks the trace cache, compiles the
block (:mod:`repro.jit.compile`: one lockstep pass over the whole
block, re-traced warp by warp only when that pass aborts or the cache
says it will), and on success *consumes* the warp scripts: one
precomputed step per warp per round, in the exact ascending ``(round,
warp)`` order — and therefore the exact L1-cache evolution, counter
stream, store commit order, and fault position — the interpreters
produce.  On any guard failure it returns ``None`` with
zero side effects committed, and the caller falls back to the fast
interpreter, which replays the block from round zero ("replay from the
last round boundary" is trivially exact because compilation commits
nothing).
"""

from __future__ import annotations

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
        scripts, lockstep = compile_block(block, verdict != PER_WARP)
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
        return _consume(block, scripts)
    if key is not None:
        TRACE_CACHE.store(key, reason)
    stats.note_deopt(reason)
    return None


def _consume(block, scripts):
    """Execute compiled warp scripts round by round.

    Mirrors the fast engine's observable order exactly: within a round,
    warps commit and account in ascending order; a warp's store commits
    before its group is accounted; the round's ``lane_steps``/
    ``mem_serial_rounds``/``rounds`` updates land after the last warp.
    """
    c = block.counters
    params = block.params
    access = block._l1.access
    rec = block.recorder
    cost_ld = block._cost_ld
    cost_st = block._cost_st
    sector_cycles = params.sector_cycles
    l1_sector_cycles = params.l1_sector_cycles
    lsu_cycles = params.lsu_transaction_cycles
    maxlen = 0
    for s in scripts:
        if len(s.steps) > maxlen:
            maxlen = len(s.steps)
    # Counters accumulate in locals for speed and flush to the block's
    # BlockCounters at the end (or just before a fault raises, so the
    # partial state an error leaves behind matches the interpreters).
    issues = c.issues
    issue_cycles = c.issue_cycles
    loads = c.loads
    stores = c.stores
    l1_hits = c.l1_hits
    l1_misses = c.l1_misses
    gl_sectors = c.global_load_sectors
    gs_sectors = c.global_store_sectors
    lsu = c.lsu_transactions
    mem_cycles = c.mem_cycles
    lane_steps = c.lane_steps
    serial_rounds = c.mem_serial_rounds
    rounds = c.rounds
    for r in range(maxlen):
        stall = False
        advanced = 0
        for script in scripts:
            steps = script.steps
            if r >= len(steps):
                continue
            step = steps[r]
            tag = step[0]
            if tag == "C":
                issues += 1
                issue_cycles += step[1]
                advanced += script.nlanes
            elif tag == "L":
                _, npos, nelem, secs, transactions = step
                issues += 1
                loads += nelem
                issue_cycles += cost_ld * npos
                hits, misses = access(secs)
                l1_hits += hits
                l1_misses += misses
                gl_sectors += misses
                if misses:
                    stall = True
                lsu += transactions
                mem_cycles += (
                    misses * sector_cycles
                    + hits * l1_sector_cycles
                    + transactions * lsu_cycles
                )
                advanced += script.nlanes
            elif tag == "S":
                _, npos, nelem, secs, transactions, buf, commits = step
                mark = buf.mark_dirty_sel
                if rec is not None and rec.tracks(buf):
                    for sel, values in commits:
                        rec.on_store_bulk(buf, sel, values)
                        buf.data[sel] = values
                        mark(sel)
                else:
                    data = buf.data
                    for sel, values in commits:
                        data[sel] = values
                        mark(sel)
                issues += 1
                stores += nelem
                issue_cycles += cost_st * npos
                hits, misses = access(secs)
                l1_hits += hits
                l1_misses += misses
                gs_sectors += misses
                lsu += transactions
                mem_cycles += (
                    misses * sector_cycles
                    + hits * l1_sector_cycles
                    + transactions * lsu_cycles
                )
                advanced += script.nlanes
            else:  # 'F' — commit the lane-major prefix, then fault.
                c.issues = issues
                c.issue_cycles = issue_cycles
                c.loads = loads
                c.stores = stores
                c.l1_hits = l1_hits
                c.l1_misses = l1_misses
                c.global_load_sectors = gl_sectors
                c.global_store_sectors = gs_sectors
                c.lsu_transactions = lsu
                c.mem_cycles = mem_cycles
                c.lane_steps = lane_steps
                c.mem_serial_rounds = serial_rounds
                c.rounds = rounds
                _, buf, prefix, bad_idx = step
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
        lane_steps += advanced
        if stall:
            serial_rounds += 1
        rounds += 1
    c.issues = issues
    c.issue_cycles = issue_cycles
    c.loads = loads
    c.stores = stores
    c.l1_hits = l1_hits
    c.l1_misses = l1_misses
    c.global_load_sectors = gl_sectors
    c.global_store_sectors = gs_sectors
    c.lsu_transactions = lsu
    c.mem_cycles = mem_cycles
    c.lane_steps = lane_steps
    c.mem_serial_rounds = serial_rounds
    c.rounds = rounds
    return c
